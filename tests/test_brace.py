import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois import (
    Cyclic,
    Dihedral,
    DirectProduct,
    SemidirectCC,
    SkewBrace,
    additive_group,
    are_isomorphic,
    brace_from_regular,
    build,
    catalog,
    holomorph,
    lambda_circ_in_hol,
    multiplicative_group,
    regular_subgroups,
    trivial_brace,
    verify_brace,
)
from hopfgalois import brace
from hopfgalois.brace import _group_generators, group_table_identity
from hopfgalois.errors import PreconditionError
from hopfgalois.perm import composer

from conftest import (
    C,
    D,
    brace_mismatches,
    brute_force_is_group_table,
    brute_force_lambda_circ_in_hol,
    brute_force_verify_brace,
    catalog_cases,
)


def table_of(G):
    n, rows = len(G), G.rows()
    return tuple(tuple(rows[i][j] for j in range(n)) for i in range(n))


def relabel_table(table, images):
    """Transport a group table along a bijection of its carrier."""
    n = len(table)
    inv = [0] * n
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(
        tuple(images[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
    )


def test_trivial_brace_abelian():
    assert verify_brace(trivial_brace(C(6)))


def test_trivial_brace_nonabelian():
    # the law reads the middle term as the additive inverse; with the
    # multiplicative-inverse reading this brace would fail
    B = trivial_brace(build(SemidirectCC(3, 2, 2)))
    assert verify_brace(B)
    assert lambda_circ_in_hol(B)


def test_mismatched_identity_pair_fails():
    z4 = table_of(C(4))
    v4 = table_of(build(DirectProduct(Cyclic(2), Cyclic(2))))
    # relabel V4 so its identity moves away from Z4's
    moved = relabel_table(v4, (1, 0, 2, 3))
    B = SkewBrace(4, z4, moved)
    assert _group_generators(moved) is not None
    assert group_table_identity(moved) != group_table_identity(z4)
    assert not verify_brace(B)


def test_non_group_table_fails():
    z4 = table_of(C(4))
    broken = [list(r) for r in z4]
    broken[1][2], broken[1][3] = broken[1][3], broken[1][2]
    B = SkewBrace(4, z4, tuple(tuple(r) for r in broken))
    assert not verify_brace(B)


def test_monoid_multiplication_fails():
    # associative with identity 0, but row 1 is no bijection: only the
    # row checks of _group_generators and lambda_circ_in_hol reject it
    B = SkewBrace(2, ((0, 1), (1, 0)), ((0, 1), (1, 1)))
    assert verify_brace(B) is False
    assert lambda_circ_in_hol(B) is False


def test_relabelled_z4_leaves_holomorph():
    # identity-fixing bijection that is not an automorphism
    z4 = table_of(C(4))
    relabeled = relabel_table(z4, (0, 1, 3, 2))
    B = SkewBrace(4, z4, relabeled)
    assert _group_generators(relabeled) is not None
    assert group_table_identity(relabeled) == group_table_identity(z4)
    assert not lambda_circ_in_hol(B)
    assert not verify_brace(B)


def test_law_fails_at_the_second_multiplicative_generator_only():
    # the law runs over a generating set T of (N, o) only; here lambda is
    # additive at T's first element and not at its second, so a check
    # short of any element of T would accept this pair
    z4 = table_of(C(4))
    mul = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))
    B = SkewBrace(4, z4, mul)
    e, _, neg, cols, shifts = brace._structure(z4)
    found = _group_generators(mul)
    assert found is not None and found[0] == e
    first, second = found[1]

    def additive_at(a):
        return brace._is_additive(composer(mul[a])(z4[neg[a]]), cols, shifts)

    assert additive_at(first) and not additive_at(second)
    assert verify_brace(B) is brute_force_verify_brace(B) is False
    assert lambda_circ_in_hol(B) is brute_force_lambda_circ_in_hol(B) is False


def test_brace_from_translations_is_trivial():
    N = C(6)
    hol = holomorph(N)
    from hopfgalois.groups import PermGroup

    lam = PermGroup(len(N), hol.lam)
    B = brace_from_regular(lam, N)
    assert B.add_table == B.mul_table
    assert verify_brace(B)


def test_brace_mixed_types():
    N = C(6)
    recs = regular_subgroups(holomorph(N))
    nonabelian = next(r for r in recs if r.iso_text == "D6")
    B = brace_from_regular(nonabelian.subgroup, N)
    assert verify_brace(B) and lambda_circ_in_hol(B)
    assert are_isomorphic(additive_group(B), C(6)) is not None
    assert are_isomorphic(multiplicative_group(B), D(6)) is not None
    # the multiplicative translations are exactly the regular subgroup
    assert frozenset(multiplicative_group(B).elements) == frozenset(
        nonabelian.subgroup.elements
    )


def test_middle_term_is_the_additive_inverse():
    # on a brace whose two inverses differ, only the additive reading of
    # the law's middle term survives; the multiplicative reading breaks
    N = C(6)
    rec = next(
        r for r in regular_subgroups(holomorph(N)) if r.iso_text == "D6"
    )
    B = brace_from_regular(rec.subgroup, N)
    add, mul, n = B.add_table, B.mul_table, B.size
    e = group_table_identity(add)
    neg = [next(x for x in range(n) if add[a][x] == e) for a in range(n)]
    inv_mul = [next(x for x in range(n) if mul[a][x] == e) for a in range(n)]
    assert neg != inv_mul  # the readings genuinely differ here

    def violations(middle):
        return sum(
            mul[a][add[b][c]] != add[add[mul[a][b]][middle[a]]][mul[a][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    assert violations(neg) == 0
    assert violations(inv_mul) > 0


def test_brace_from_regular_refuses_regular_subgroup_outside_holomorph():
    # <the 4-cycle 0 -> 1 -> 3 -> 2 -> 0> acts regularly on C4's indices,
    # but it is not in Hol(C4): its tables are groups with one identity,
    # and only the brace law refuses them
    N = C(4)
    from hopfgalois.groups import closure, is_regular

    R = closure([(1, 3, 0, 2)])
    assert is_regular(R)
    assert not frozenset(R.elements) <= frozenset(holomorph(N).group.elements)
    with pytest.raises(PreconditionError, match="violate the brace law"):
        brace_from_regular(R, N)


def test_brace_from_regular_rejects_non_regular():
    N = C(6)
    from hopfgalois.groups import closure

    refl = closure([tuple((-x) % 6 for x in range(6))])
    with pytest.raises(PreconditionError):
        brace_from_regular(refl, N)


def test_lambda_circ_requires_group_addition():
    z4 = table_of(C(4))
    broken = [list(r) for r in z4]
    broken[1][2], broken[1][3] = broken[1][3], broken[1][2]
    B = SkewBrace(4, tuple(tuple(r) for r in broken), z4)
    with pytest.raises(PreconditionError):
        lambda_circ_in_hol(B)


STOCK_SPECS = {
    2: [Cyclic(2)],
    3: [Cyclic(3)],
    4: [Cyclic(4), DirectProduct(Cyclic(2), Cyclic(2))],
    5: [Cyclic(5)],
    6: [Cyclic(6), SemidirectCC(3, 2, 2)],
    7: [Cyclic(7)],
    8: [
        Cyclic(8),
        DirectProduct(Cyclic(2), Cyclic(4)),
        DirectProduct(Cyclic(2), DirectProduct(Cyclic(2), Cyclic(2))),
        Dihedral(8),
    ],
}


def random_pair(rng):
    size = rng.choice(sorted(STOCK_SPECS))
    add_G = build(rng.choice(STOCK_SPECS[size]))
    mul_G = build(rng.choice(STOCK_SPECS[size]))
    add = table_of(add_G)
    mul = table_of(mul_G)
    # identity-fixing relabel keeps both tables groups with one identity
    rest = list(range(1, size))
    rng.shuffle(rest)
    images = tuple([0] + rest)
    return SkewBrace(size, add, relabel_table(mul, images))


def test_biconditional_on_random_group_pairs():
    # verify_brace and holomorph membership must agree on group-table
    # pairs sharing an identity, brace or not (smoke version; the full
    # 1000-pair run lives in the acceptance suite)
    rng = random.Random(20240817)
    seen_false = 0
    for _ in range(200):
        B = random_pair(rng)
        a, b = verify_brace(B), lambda_circ_in_hol(B)
        assert a == b
        seen_false += not a
    assert seen_false > 0  # adversarial cases genuinely exercised


def test_every_brace_at_order_10_verifies():
    for entry in catalog(10):
        hol = holomorph(entry.group)
        for rec in regular_subgroups(hol):
            B = brace_from_regular(rec.subgroup, entry.group)
            assert verify_brace(B)
            assert lambda_circ_in_hol(B)


# The generating-set checks against the O(n^3) oracles in conftest.

# A loop of order 5 (the smallest order with a non-associative loop) on
# which 36 of the 125 triples fail associativity.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def disagreements(B):
    """The checks whose verdict on B differs from their O(n^3) oracle."""
    out = []
    for name, table in (("add", B.add_table), ("mul", B.mul_table)):
        if (_group_generators(table) is not None) != brute_force_is_group_table(table):
            out.append(f"_group_generators({name})")
    if verify_brace(B) != brute_force_verify_brace(B):
        out.append("verify_brace")
    if brute_force_is_group_table(B.add_table):
        if lambda_circ_in_hol(B) != brute_force_lambda_circ_in_hol(B):
            out.append("lambda_circ_in_hol")
    return out


def isotope_loop(table, rows, cols, symbols):
    """A Latin square isotopic to ``table``, renormalised to identity 0.

    (x, y) -> symbols[table[rows[x]][cols[y]]] is a Latin square L; the
    principal isotope x * y = L(R^-1 x, C^-1 y), with R x = L(x, 0) and
    C y = L(0, y), has identity L(0, 0), which a transposition of the
    carrier then moves to 0.
    """
    n = len(table)
    L = [[symbols[table[rows[x]][cols[y]]] for y in range(n)] for x in range(n)]
    r_inv, c_inv = [0] * n, [0] * n
    for x in range(n):
        r_inv[L[x][0]] = x
        c_inv[L[0][x]] = x
    loop = [[L[r_inv[x]][c_inv[y]] for y in range(n)] for x in range(n)]
    swap = list(range(n))
    swap[0], swap[L[0][0]] = L[0][0], 0
    return relabel_table(loop, swap)


def random_isotope_cases(rng, orders):
    """Latin squares with identity 0 from catalog tables, each paired with
    a group table of its order in both brace slots."""
    cases = []
    for order in orders:
        tables = [table_of(e.group) for e in catalog(order)]
        for table in tables:
            perms = []
            for _ in range(3):
                p = list(range(order))
                rng.shuffle(p)
                perms.append(p)
            loop = isotope_loop(table, *perms)
            group = rng.choice(tables)
            cases.append(SkewBrace(order, group, loop))
            cases.append(SkewBrace(order, loop, group))
    return cases


def row_latin_table(rng, n):
    """Identity 0 and every row a permutation; columns mostly not."""
    table = [list(range(n))]
    for a in range(1, n):
        rest = [x for x in range(n) if x != a]
        rng.shuffle(rest)
        table.append([a] + rest)
    return table


def oracle_cases():
    rng = random.Random(20261018)
    z5 = table_of(C(5))
    cases = [SkewBrace(5, z5, LOOP5), SkewBrace(5, LOOP5, z5)]
    cases += random_isotope_cases(rng, (5, 6, 10, 12, 14, 15, 30))
    for n in (3, 4, 6, 12):
        group = table_of(catalog(n)[0].group)
        for _ in range(3):
            cases.append(SkewBrace(n, group, row_latin_table(rng, n)))
    cases += [random_pair(rng) for _ in range(60)]
    return cases


def test_loop5_fails_on_some_triples_only():
    n = len(LOOP5)
    assert group_table_identity(LOOP5) == 0
    assert all(sorted(row) == list(range(n)) for row in LOOP5)
    bad = sum(
        LOOP5[LOOP5[a][b]][c] != LOOP5[a][LOOP5[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    assert 0 < bad < n**3
    assert _group_generators(LOOP5) is None


def test_isotopes_are_latin_squares_with_identity_zero():
    rng = random.Random(7)
    for B in random_isotope_cases(rng, (6, 12)):
        loop = B.mul_table if brute_force_is_group_table(B.add_table) else B.add_table
        assert group_table_identity(loop) == 0
        assert all(sorted(row) == list(range(B.size)) for row in loop)
        assert all(sorted(col) == list(range(B.size)) for col in zip(*loop))


def test_checks_match_oracles_on_loops_and_random_pairs():
    cases = oracle_cases()
    assert [d for B in cases if (d := disagreements(B))] == []
    # both verdicts are exercised, and rows that are permutations while
    # the columns are not
    assert any(
        any(sorted(col) != list(range(B.size)) for col in zip(*B.mul_table))
        for B in cases
    )
    assert any(_group_generators(B.mul_table) is not None for B in cases)
    assert any(_group_generators(B.mul_table) is None for B in cases)
    assert any(verify_brace(B) for B in cases)
    assert any(not verify_brace(B) for B in cases)


def test_checks_match_oracles_on_every_brace_up_to_order_30():
    assert brace_mismatches(catalog_cases(range(1, 31))) == (405, 0, [])


def test_dropping_a_generator_is_caught(monkeypatch):
    # mutation check: a generating set short of its last element must
    # make the comparison against the oracles fail somewhere, and among
    # the failures the holomorph check, which reads only the rows of the
    # multiplicative generating set.  The structure memo is emptied on
    # both sides of the patch, so no entry built with the full set hides
    # the mutation and no mutated entry outlives it.
    full = brace._generating_set
    brace._structure_of.cache_clear()
    monkeypatch.setattr(brace, "_generating_set", lambda table, e: full(table, e)[:-1])
    try:
        found = [d for B in oracle_cases() if (d := disagreements(B))]
    finally:
        brace._structure_of.cache_clear()
    assert any("lambda_circ_in_hol" in d for d in found)


@st.composite
def loop_and_group(draw):
    order = draw(st.sampled_from((4, 5, 6, 8, 9, 10)))
    spec = draw(st.sampled_from(STOCK_SPECS.get(order) or [Cyclic(order)]))
    table = table_of(build(spec))
    perms = [draw(st.permutations(range(order))) for _ in range(3)]
    relabel = [0] + draw(st.permutations(range(1, order)))
    return table, isotope_loop(table, *perms), relabel_table(table, relabel)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(loop_and_group())
def test_checks_match_oracles_on_random_loops(case):
    group, loop, relabelled = case
    n = len(group)
    assert disagreements(SkewBrace(n, group, loop)) == []
    assert disagreements(SkewBrace(n, loop, group)) == []
    assert disagreements(SkewBrace(n, group, relabelled)) == []


def catalog_tables(order):
    return [table_of(G) for _, G in catalog_cases([order])]


CATALOG_ORDERS = [k for k in range(1, 13) if catalog_tables(k)]


@st.composite
def relabelled_catalog_pair(draw):
    """Two catalog tables of one order, each relabelled by a bijection
    fixing the identity 0: groups with a shared identity, brace or not."""
    order = draw(st.sampled_from(CATALOG_ORDERS))
    tables = catalog_tables(order)
    add, mul = (
        relabel_table(draw(st.sampled_from(tables)), [0] + draw(st.permutations(range(1, order))))
        for _ in range(2)
    )
    return SkewBrace(order, add, mul)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(relabelled_catalog_pair())
def test_law_matches_oracles_on_relabelled_catalog_pairs(B):
    assert group_table_identity(B.add_table) == group_table_identity(B.mul_table) == 0
    assert verify_brace(B) == brute_force_verify_brace(B) == lambda_circ_in_hol(B)


@pytest.mark.parametrize(
    "add,mul,size",
    [
        ("Z4", "Z6", 4),  # more multiplicative rows than size
        ("Z4", "Z4", 5),  # size larger than both tables
        ("Z4", "Z4", 3),  # size smaller than both tables
        ("Z6", "Z4", 4),  # more additive rows than size
    ],
)
def test_size_disagreeing_with_tables(add, mul, size):
    tables = {"Z4": table_of(C(4)), "Z6": table_of(C(6))}
    B = SkewBrace(size, tables[add], tables[mul])
    assert verify_brace(B) is False
    if len(B.add_table) != size:
        with pytest.raises(PreconditionError):
            lambda_circ_in_hol(B)
    else:
        assert lambda_circ_in_hol(B) is False


# Orders 0, 1 and 2: at order 1 an itemgetter over a row returns a scalar.


@pytest.mark.parametrize("order", [1, 2])
def test_checks_at_orders_one_and_two(order):
    N = C(order)
    B = trivial_brace(N)
    assert verify_brace(B) and lambda_circ_in_hol(B)
    for rec in regular_subgroups(holomorph(N)):
        B = brace_from_regular(rec.subgroup, N)
        assert verify_brace(B) is brute_force_verify_brace(B) is True
        assert lambda_circ_in_hol(B) is brute_force_lambda_circ_in_hol(B) is True


def test_checks_at_order_zero():
    B = SkewBrace(0, (), ())
    assert verify_brace(B) is False
    with pytest.raises(PreconditionError):
        lambda_circ_in_hol(B)


# The structure memo: keyed by the table's value, bounded, no verdicts.


def swapped_row(mul, a, x, y):
    """``mul`` with the entries at x and y of row a exchanged."""
    rows = [list(r) for r in mul]
    rows[a][x], rows[a][y] = rows[a][y], rows[a][x]
    return tuple(map(tuple, rows))


def test_list_rows_give_the_tuple_verdicts():
    z4 = table_of(C(4))
    v4 = table_of(build(DirectProduct(Cyclic(2), Cyclic(2))))
    relabeled = relabel_table(z4, (0, 1, 3, 2))
    for mul in (z4, relabeled, v4):
        B = SkewBrace(4, z4, mul)
        L = SkewBrace(4, [list(r) for r in z4], [list(r) for r in mul])
        assert verify_brace(L) == verify_brace(B)
        assert lambda_circ_in_hol(L) == lambda_circ_in_hol(B)
    broken = [list(r) for r in z4]
    broken[1][2], broken[1][3] = broken[1][3], broken[1][2]
    for add in (broken, tuple(map(tuple, broken))):
        B = SkewBrace(4, add, z4)
        assert verify_brace(B) is False
        with pytest.raises(PreconditionError):
            lambda_circ_in_hol(B)


def test_memo_keeps_no_verdict():
    for N in (C(6), D(6)):
        for rec in regular_subgroups(holomorph(N)):
            B = brace_from_regular(rec.subgroup, N)
            assert verify_brace(B) and lambda_circ_in_hol(B)
            bad = SkewBrace(B.size, B.add_table, swapped_row(B.mul_table, 1, 2, 3))
            assert not verify_brace(bad)
            assert not brute_force_verify_brace(bad)
            assert lambda_circ_in_hol(bad) == brute_force_lambda_circ_in_hol(bad)


def test_memo_stays_within_its_bound():
    info = brace._structure_of.cache_info()
    assert info.maxsize == 2
    for order in (4, 6, 10, 12):
        for entry in catalog(order):
            B = trivial_brace(entry.group)
            assert verify_brace(B) and lambda_circ_in_hol(B)
            info = brace._structure_of.cache_info()
            assert info.currsize <= info.maxsize


def test_each_table_value_is_tested_once_per_brace_run():
    # brace_from_regular, verify_brace and lambda_circ_in_hol on every
    # brace of one N: N's addition table and each multiplicative table
    # other than it are tested once, on first sight, and every later
    # check reads them.  The memo is emptied per N, since one N's last
    # multiplicative table may equal the next N's addition table.
    for N in (C(6), D(6), D(10)):
        brace._structure_of.cache_clear()
        tables = {tuple(map(tuple, N.rows()))}
        for rec in regular_subgroups(holomorph(N)):
            B = brace_from_regular(rec.subgroup, N)
            assert verify_brace(B) and lambda_circ_in_hol(B)
            tables.add(tuple(map(tuple, B.mul_table)))
            assert brace._structure_of.cache_info().currsize <= 2
        assert brace._structure_of.cache_info().misses == len(tables)
