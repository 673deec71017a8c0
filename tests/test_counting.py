import random
import sys

import pytest

from hopfgalois import (
    Cyclic,
    Dihedral,
    DirectProduct,
    build,
    byott_aggregate,
    chi,
    count_hgs_dihedral,
    direct_normalized_count,
    euler_phi,
    factorize,
    formula_count_dihedral,
    is_burnside_number,
    radical,
)
from hopfgalois.errors import (
    BoundExceededError,
    BudgetExceededError,
    PreconditionError,
)

from hopfgalois.groups import MR_LIMIT, _probable_prime

from conftest import C, D, dihedral_terms, trial_division_pairs


def test_factorize():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(1).pairs == ()
    assert factorize(97).pairs == ((97, 1),)
    assert factorize(360).pairs == ((2, 3), (3, 2), (5, 1))
    big = 1000000000000000003  # prime
    assert factorize(big).pairs == ((big, 1),)
    assert factorize(4 * big).pairs == ((2, 2), (big, 1))
    # a strong pseudoprime to the bases 2 .. 23, split by rho
    assert factorize(3825123056546413051).pairs == (
        (149491, 1), (747451, 1), (34233211, 1),
    )


def test_factorize_matches_trial_division():
    for n in range(1, 10**5 + 1):
        assert factorize(n).pairs == trial_division_pairs(n), n


def test_factorize_smooth_numbers_up_to_1e30():
    # products of primes below 10^4: the cofactors past trial division are
    # split by rho and certified by Miller-Rabin
    rng = random.Random(1)
    primes = [p for p in range(2, 10**4) if trial_division_pairs(p) == ((p, 1),)]
    for _ in range(200):
        n = 1
        while n * primes[-1] <= 10**30:
            n *= rng.choice(primes)
        assert factorize(n).pairs == trial_division_pairs(n), n


def test_miller_rabin_sees_through_strong_pseudoprimes():
    # the least strong pseudoprime to each prefix of the bases 2, 3, 5, ...
    for n in (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    ):
        assert not _probable_prime(n), n
    assert all(
        _probable_prime(n) == (trial_division_pairs(n) == ((n, 1),))
        for n in range(43, 20001, 2)
    )


@pytest.mark.parametrize(
    "n",
    [
        MR_LIMIT,  # composite, yet a strong pseudoprime to all 13 bases
        10**30 + 57,  # past MR_LIMIT
        (10**12 + 39) * (10**12 + 61),  # two 13-digit primes: past the rho budget
    ],
)
def test_factorize_never_guesses(n):
    with pytest.raises(BoundExceededError):
        factorize(n)


def test_euler_phi():
    assert euler_phi(15) == 8
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4


def test_radical():
    assert radical(45) == 15
    assert radical(8) == 2
    assert radical(1) == 1


def test_burnside_number():
    assert is_burnside_number(15)
    assert not is_burnside_number(21)
    assert is_burnside_number(1)
    assert not is_burnside_number(8)


def test_chi_values():
    assert chi(3) == {0: 3, 1: 1}
    assert chi(15) == {0: 15, 1: 8, 2: 1}
    assert chi(9) == {0: 9, 1: 1}
    assert chi(1) == {0: 1}


def test_chi_rejects_even():
    with pytest.raises(PreconditionError):
        chi(6)


@pytest.mark.parametrize("n", [3, 9, 15, 21, 105, 225])
def test_chi_sum_invariant(n):
    total = sum(chi(n).values())
    expected = 1
    for p, a in factorize(n).pairs:
        expected *= 1 + p**a
    assert total == expected
    assert chi(n)[0] == n
    assert all(c > 0 for c in chi(n).values())


def test_formula_values():
    assert formula_count_dihedral(3) == 28
    assert formula_count_dihedral(15) == 630784
    assert formula_count_dihedral(1) == 2


def test_formula_matches_reversed_hand_sum():
    for n in (3, 7, 15, 45):
        table = chi(n)
        by_hand = sum(2**m * table.get(n - m, 0) for m in reversed(range(n + 1)))
        assert formula_count_dihedral(n) == by_hand
        assert isinstance(formula_count_dihedral(n), int)


def test_formula_large_exact():
    # exact big integers, no floats
    value = formula_count_dihedral(105)
    assert value % 2 == 0 and value > 2**104


def test_direct_counts_tiny():
    assert direct_normalized_count(C(1)) == 1
    assert direct_normalized_count(C(2)) == 1
    assert direct_normalized_count(C(3)) == 1


def test_direct_count_matches_byott_order_leq_6():
    specs = [
        Cyclic(1),
        Cyclic(2),
        Cyclic(3),
        Cyclic(4),
        DirectProduct(Cyclic(2), Cyclic(2)),
        Cyclic(5),
        Cyclic(6),
        Dihedral(6),
    ]
    for spec in specs:
        G = build(spec)
        assert byott_aggregate(G) == direct_normalized_count(G), spec.text()


def test_direct_count_needs_budget_above_6():
    with pytest.raises(PreconditionError):
        direct_normalized_count(D(10))


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1])
def test_direct_count_rejects_bad_budget(budget):
    # a NaN deadline is never passed, so the budget would be switched off
    with pytest.raises(PreconditionError):
        direct_normalized_count(build(Dihedral(6)), budget_seconds=budget)


def test_direct_count_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        direct_normalized_count(D(10), budget_seconds=0.0)


def test_count_report_fields():
    rep = count_hgs_dihedral(3, with_direct=True)
    assert rep.e_formula == 28
    assert isinstance(rep.e_direct, int)
    assert rep.agreement in ("match", "mismatch")
    assert rep.agreement == ("match" if rep.e_direct == 28 else "mismatch")
    assert rep.direct_method == "normalized-regular-search"


def test_count_report_without_direct():
    rep = count_hgs_dihedral(15)
    assert rep.e_formula == 630784
    assert rep.e_direct is None and rep.agreement == "direct-not-run"
    assert rep.warnings == ()


def test_count_report_warnings():
    rep = count_hgs_dihedral(21)
    assert any("Burnside" in w for w in rep.warnings)
    rep1 = count_hgs_dihedral(1)
    assert any("convention" in w for w in rep1.warnings)
    assert rep1.e_formula == 2


def test_e_formula_past_the_int_text_limit_is_refused(monkeypatch):
    # at 4300 digits, Python's default limit, 14269 is the largest odd n
    # whose e_formula can be printed
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert len(str(count_hgs_dihedral(14269).e_formula)) == 4300
    for n in (14271, 15001, 10**30 + 1):
        with pytest.raises(BoundExceededError, match="more than 4300 digits"):
            count_hgs_dihedral(n)
    # 0 means no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert count_hgs_dihedral(14271).e_formula >= 10**4300


def test_count_report_rejects_even():
    with pytest.raises(PreconditionError):
        count_hgs_dihedral(6)


def test_budget_overrun_reported_not_counted():
    rep = count_hgs_dihedral(5, with_direct=True, budget_seconds=0.0)
    assert rep.e_direct is None
    assert rep.agreement == "direct-not-run"
    assert rep.direct_method and rep.direct_method.startswith("not-run")


# Sum over N in catalog(2n) of #pairs(D_2n, N) / |Aut N|, the number of
# Hopf-Galois structures on a D_2n-extension, from the cocycle engine.
# Each value is the product of p + 2 over the primes p dividing n; the
# pinned e_formula values above are a different reading and stay as they are.
DIHEDRAL_AGGREGATES = {
    3: 5, 5: 7, 7: 9, 11: 13, 13: 15, 15: 35, 21: 45, 33: 65, 35: 63, 39: 75,
}


@pytest.mark.parametrize("n, expected", DIHEDRAL_AGGREGATES.items())
def test_cocycle_aggregate_matches_hol_side(n, expected):
    terms = dihedral_terms(n)
    assert [r for _, r in terms] == [0] * len(terms)
    total = sum(q for q, _ in terms)
    assert total == expected
    if 2 * n <= 30:
        # the Hol(N) search is the independent engine
        assert total == byott_aggregate(build(Dihedral(2 * n)))
