import pytest

from hopfgalois import (
    Cyclic,
    Dihedral,
    DirectProduct,
    byott_aggregate,
    build,
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
    BudgetExceededError,
    PreconditionError,
)

from conftest import C, D


def test_factorize():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(1).pairs == ()
    assert factorize(97).pairs == ((97, 1),)
    assert factorize(360).value() == 360


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


def test_count_report_rejects_even():
    with pytest.raises(PreconditionError):
        count_hgs_dihedral(6)


def test_budget_overrun_reported_not_counted():
    rep = count_hgs_dihedral(5, with_direct=True, budget_seconds=0.0)
    assert rep.e_direct is None
    assert rep.agreement == "direct-not-run"
    assert rep.direct_method and rep.direct_method.startswith("not-run")
