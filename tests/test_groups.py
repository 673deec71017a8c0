import importlib
import itertools
import pkgutil
import random
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfgalois import (
    all_subgroups,
    catalog,
    holomorph,
    are_isomorphic,
    parse_group_spec,
    characteristic_subgroups,
    count_crossed_pairs,
    automorphism_group,
    build,
    closure,
    homomorphisms,
    is_almost_sylow_cyclic,
    is_c_group,
    is_cyclic,
    is_regular,
    is_solvable,
    regular_representation,
    unique_odd_part,
    Alternating4,
    Cyclic,
    Dihedral,
    DirectProduct,
    SemidirectCC,
    SemidirectZ2,
)
import hopfgalois
from hopfgalois import brace, factory, groups, perm, realize
from hopfgalois.errors import (
    BoundExceededError,
    CapExceededError,
    PreconditionError,
)
from hopfgalois.factory import is_squarefree
from hopfgalois.groups import (
    TABLE_LIMIT,
    Homomorphism,
    PermGroup,
    _base,
    _generating_set,
    _reach,
    bfs_order,
    extend_images,
    generator_frame,
    greedy_frame,
    hom_candidates,
    is_normal,
    isomorphisms,
    left_translation,
    subgroups_of_order,
)

from conftest import (
    C,
    D,
    _closure_within,
    brute_force_automorphisms,
    brute_force_homomorphisms,
    capped_python,
    catalog_cases,
    characteristic_cases,
    characteristic_differs,
    cycle_orders,
    every_combination_generating_set,
    fresh_copy,
    full_check_extend_images,
    generating_set_differs,
    inverse_lookup,
    lattice_is_almost_sylow_cyclic,
    lattice_is_c_group,
    lookup_table,
    memo_of,
    orders_differ,
    pair_cases,
    per_x_cyclic_images,
    random_loop,
    restart_generating_set,
    table_cases,
    table_differs,
    tally,
    walk_differs,
)


def hol_z6_gens():
    rot = tuple((x + 1) % 6 for x in range(6))
    neg = tuple((-x) % 6 for x in range(6))
    return rot, neg


def test_closure_identity_only():
    G = closure([perm.identity(4)])
    assert len(G) == 1


def test_closure_six_cycle():
    G = closure([(1, 2, 3, 4, 5, 0)])
    assert len(G) == 6


def test_closure_hol_z6():
    rot, neg = hol_z6_gens()
    G = closure([rot, neg])
    assert len(G) == 12


def test_closure_cap_exceeded():
    with pytest.raises(CapExceededError):
        closure([(1, 2, 3, 4, 5, 0)], cap=3)


def test_closure_idempotent_and_canonical():
    G = build(SemidirectCC(3, 2, 2))
    again = closure(list(G.elements))
    assert again.elements == G.elements
    # generator order must not matter
    rot, neg = hol_z6_gens()
    assert closure([rot, neg]).elements == closure([neg, rot]).elements


def test_canonical_order_random_generators():
    G = build(Dihedral(12))
    rng = random.Random(7)
    for _ in range(5):
        gens = rng.sample(G.elements, 3)
        H = closure(gens)
        if len(H) == len(G):
            assert H.elements == G.elements


def test_all_subgroups_trivial():
    G = closure([perm.identity(3)])
    subs = all_subgroups(G)
    assert len(subs) == 1 and subs[0].elements == G.elements


def test_all_subgroups_z6():
    assert sorted(len(S) for S in all_subgroups(C(6))) == [1, 2, 3, 6]


def test_all_subgroups_s3(s3):
    subs = all_subgroups(s3)
    assert sorted(len(S) for S in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_lagrange_and_distinct():
    G = closure(list(hol_z6_gens()))
    subs = all_subgroups(G)
    seen = set()
    for S in subs:
        assert len(G) % len(S) == 0
        assert frozenset(S.elements) not in seen
        seen.add(frozenset(S.elements))
        for p in S.elements:
            assert p in G


def test_all_subgroups_bound():
    s6 = closure([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    assert len(s6) == 720  # above SUBGROUP_BOUND = 400
    with pytest.raises(BoundExceededError):
        all_subgroups(s6)
    with pytest.raises(BoundExceededError):
        subgroups_of_order(s6, 2)


def test_subgroups_of_order_filters_the_lattice():
    G = D(12)
    counts = {k: len(subgroups_of_order(G, k)) for k in (1, 2, 3, 4, 5, 6, 12)}
    assert counts == {1: 1, 2: 7, 3: 1, 4: 3, 5: 0, 6: 3, 12: 1}
    assert [S.elements for S in subgroups_of_order(G, 6)] == [
        S.elements for S in all_subgroups(G) if len(S) == 6
    ]


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(8),
        Cyclic(12),
        Dihedral(8),
        Dihedral(12),
        SemidirectCC(3, 2, 2),
        DirectProduct(Cyclic(2), DirectProduct(Cyclic(2), Cyclic(2))),
    ],
)
def test_all_subgroups_against_subset_scan(spec):
    # independent oracle: every closed subset containing the identity
    G = build(spec)
    n, rows = len(G), G.rows()
    closed = set()
    for mask in range(1 << n):
        if not mask & (1 << G.identity_index):
            continue
        subset = {i for i in range(n) if mask & (1 << i)}
        if n % len(subset):
            continue
        if all(rows[a][b] in subset for a in subset for b in subset):
            closed.add(frozenset(subset))
    fast = {
        frozenset(G.index_of(p) for p in S.elements) for S in all_subgroups(G)
    }
    assert fast == closed


def test_is_regular():
    G = C(6)
    assert is_regular(G)  # translation action on 6 points
    rot3 = closure([(1, 2, 0)])
    assert is_regular(rot3)
    neg = closure([tuple((-x) % 6 for x in range(6))])
    assert not is_regular(neg)  # fixes point 0


def test_homomorphism_counts(s3):
    assert len(homomorphisms(C(3), C(2))) == 1
    assert len(homomorphisms(C(2), C(2))) == 2
    assert len(homomorphisms(s3, C(2))) == 2


@pytest.mark.parametrize(
    "g_spec,h_spec",
    [
        (Cyclic(4), Cyclic(6)),
        (Cyclic(6), Cyclic(4)),
        (SemidirectCC(3, 2, 2), Cyclic(6)),
        (Cyclic(6), SemidirectCC(3, 2, 2)),
        (SemidirectCC(3, 2, 2), SemidirectCC(3, 2, 2)),
        (DirectProduct(Cyclic(2), Cyclic(2)), Dihedral(8)),
        (Dihedral(8), Dihedral(8)),
    ],
)
def test_homomorphisms_against_brute_force(g_spec, h_spec):
    G, H = build(g_spec), build(h_spec)
    fast = [f.images for f in homomorphisms(G, H)]
    assert fast == brute_force_homomorphisms(G, H)


def test_homomorphisms_generator_bound():
    c2_2 = DirectProduct(Cyclic(2), Cyclic(2))
    c2_4 = build(DirectProduct(c2_2, c2_2))
    with pytest.raises(BoundExceededError):  # needs four generators
        homomorphisms(c2_4, C(2))


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(4), DirectProduct(Cyclic(2), Cyclic(2)), Cyclic(6), SemidirectCC(3, 2, 2),
        Dihedral(8), DirectProduct(Cyclic(2), Cyclic(4)),
    ],
)
def test_respects_law_on_frame_generators_keeps_exactly_the_automorphisms(spec):
    # of every permutation of N's indices fixing the identity, the kernel
    # accepts on the frame generators exactly those that the all-pairs
    # filter keeps, reading rows as realize does and columns as brace does.
    # In C2xC4 the law on the first generator alone admits a bijection
    # that is no automorphism, which the others do not tell apart
    N = build(spec)
    rows, e, gens = N.rows(), N.identity_index, generator_frame(N)[0]
    cols = tuple(zip(*rows))
    col_shifts = tuple((s, perm.composer(cols[s])) for s in gens)
    fixing = [p for p in itertools.permutations(range(len(N))) if p[e] == e]
    by_rows = [p for p in fixing if groups.respects_law(p, rows, groups.generator_shifts(N))]
    by_cols = [p for p in fixing if groups.respects_law(p, cols, col_shifts)]
    assert by_rows == by_cols == brute_force_automorphisms(N)


@pytest.mark.parametrize(
    "g_spec,h_spec",
    [
        (DirectProduct(Cyclic(2), Cyclic(2)), SemidirectCC(3, 2, 2)),
        (Cyclic(4), Dihedral(8)),
        (Cyclic(1), Cyclic(3)),
    ],
)
def test_homomorphism_verify_keeps_exactly_the_homomorphisms(g_spec, h_spec):
    # Homomorphism.verify reads respects_law across two groups: of every
    # map fixing the identity, it accepts exactly the backtracking oracle's
    G, H = build(g_spec), build(h_spec)
    e, f = G.identity_index, H.identity_index
    maps = [m for m in itertools.product(range(len(H)), repeat=len(G)) if m[e] == f]
    assert [m for m in maps if Homomorphism(G, H, m).verify()] == brute_force_homomorphisms(G, H)


def test_are_isomorphic_identity():
    G = C(6)
    iso = are_isomorphic(G, G)
    assert iso is not None and len(set(iso.images)) == len(G) and iso.verify()


def test_are_isomorphic_rejects(s3):
    assert are_isomorphic(C(6), s3) is None


def test_are_isomorphic_finds(s3):
    iso = are_isomorphic(s3, D(6))
    assert iso is not None and len(set(iso.images)) == len(s3) and iso.verify()


@pytest.mark.parametrize("i", range(5))
def test_isomorphisms_order_12_against_brute_force(i):
    # catalog classes are pairwise non-isomorphic: maps exist only for i == j
    entries = catalog(12)
    G = entries[i].group
    for j, entry in enumerate(entries):
        H = entry.group
        maps = list(isomorphisms(G, H))
        assert all(Homomorphism(G, H, m).verify() for m in maps)
        assert sorted(maps) == [
            m for m in brute_force_homomorphisms(G, H) if len(set(m)) == len(G)
        ]
        assert len(maps) == (len(automorphism_group(G)) if i == j else 0)


@pytest.mark.parametrize("s, aut_order", [(1, 8), (4, 40), (11, 24), (14, 120)])
def test_isomorphisms_semidirect_z2_15(s, aut_order):
    # C30, C3 x D10, C5 x S3, D30: |Aut| = 8, 2*20, 4*6 and 15*8
    G = build(SemidirectZ2(15, s))
    counts = []
    for entry in catalog(30):
        maps = list(isomorphisms(G, entry.group))
        assert all(Homomorphism(G, entry.group, m).verify() for m in maps)
        counts.append(len(maps))
    assert sorted(counts) == [0, 0, 0, aut_order]


def test_are_isomorphic_equal_order_profiles():
    # the Heisenberg group mod 3 on Z3 x Z3, (a, b) -> (a + u, b + w*a + v),
    # and C3 x C3 x C3: both have 26 elements of order 3
    shift = tuple(((a + 1) % 3) * 3 + b for a in range(3) for b in range(3))
    shear = tuple(a * 3 + (b + a) % 3 for a in range(3) for b in range(3))
    heis = closure([shift, shear])
    c3_3 = build(DirectProduct(Cyclic(3), DirectProduct(Cyclic(3), Cyclic(3))))
    assert len(heis) == len(c3_3) == 27
    assert heis.order_profile() == c3_3.order_profile()
    assert are_isomorphic(heis, c3_3) is None
    assert are_isomorphic(c3_3, heis) is None


def test_is_solvable():
    assert is_solvable(C(15))
    assert is_solvable(D(30))
    a5 = closure([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert len(a5) == 60
    assert not is_solvable(regular_representation(a5))


def test_is_c_group(s3, z3xz3):
    assert is_c_group(C(15))
    assert is_c_group(s3)
    assert not is_c_group(z3xz3)


def test_almost_sylow_cyclic(s3):
    assert is_almost_sylow_cyclic(C(15))
    assert is_almost_sylow_cyclic(s3)
    assert is_almost_sylow_cyclic(D(12))
    e8 = build(DirectProduct(DirectProduct(Cyclic(2), Cyclic(2)), Cyclic(2)))
    assert not is_almost_sylow_cyclic(e8)


V4 = DirectProduct(Cyclic(2), Cyclic(2))

# Groups whose Sylow subgroups are not all of prime order, so both
# predicates have something to decide; they take both values here.
SYLOW_CASES = [
    V4,
    DirectProduct(V4, Cyclic(2)),
    DirectProduct(Cyclic(4), Cyclic(2)),
    DirectProduct(Cyclic(3), Cyclic(3)),
    Dihedral(8),
    Alternating4(),
    DirectProduct(Alternating4(), Cyclic(2)),
    Dihedral(36),
    DirectProduct(Cyclic(3), Dihedral(18)),
    DirectProduct(Cyclic(9), Cyclic(3)),
    SemidirectCC(3, 8, 2),
    DirectProduct(Dihedral(10), Cyclic(4)),
]


@pytest.mark.parametrize("spec", SYLOW_CASES, ids=lambda s: s.text())
def test_sylow_predicates_match_lattice(spec):
    G = build(spec)
    assert is_c_group(G) == lattice_is_c_group(G)
    assert is_almost_sylow_cyclic(G) == lattice_is_almost_sylow_cyclic(G)


def test_sylow_cases_take_both_values():
    groups = [build(spec) for spec in SYLOW_CASES]
    assert {is_c_group(G) for G in groups} == {True, False}
    assert {is_almost_sylow_cyclic(G) for G in groups} == {True, False}


@pytest.mark.parametrize(
    "order", [4, 12] + [n for n in range(1, 43) if is_squarefree(n)]
)
def test_sylow_predicates_match_lattice_on_catalog(order):
    for entry in catalog(order):
        G = entry.group
        assert is_c_group(G) == lattice_is_c_group(G), entry.spec.text()
        assert is_almost_sylow_cyclic(G) == lattice_is_almost_sylow_cyclic(G)


def test_sylow_predicates_above_subgroup_bound():
    # element orders decide both; the lattice walk stops at 400
    G = C(455)
    assert is_c_group(G) and is_almost_sylow_cyclic(G)
    with pytest.raises(BoundExceededError):
        all_subgroups(G)


def test_unique_odd_part_d6():
    H = unique_odd_part(D(6))
    assert len(H) == 3
    assert sorted(H.order_of(i) for i in range(3)) == [1, 3, 3]


def test_unique_odd_part_z6():
    G = C(6)
    H = unique_odd_part(G)
    translations = {p[0] for p in H.elements}
    assert translations == {0, 2, 4}


def test_unique_odd_part_d30():
    H = unique_odd_part(D(30))
    assert len(H) == 15 and is_cyclic(H)


@pytest.mark.parametrize("order", [o for o in range(6, 111, 4) if is_squarefree(o)])
def test_unique_odd_part_matches_lattice(order):
    # the subgroup lattice as oracle: one subgroup of order n, the one returned
    for entry in catalog(order):
        G = PermGroup(entry.group.degree, entry.group.elements, entry.group.generators)
        H = unique_odd_part(G)
        assert not memo_of(G, all_subgroups)  # the lattice was not walked
        assert [S.elements for S in subgroups_of_order(G, order // 2)] == [H.elements]


def test_unique_odd_part_above_the_lattice_bound():
    G = D(802)
    H = unique_odd_part(G)
    assert len(H) == 401 and is_cyclic(H) and not memo_of(G, all_subgroups)


def test_unique_odd_part_precondition(z3xz3):
    with pytest.raises(PreconditionError):
        unique_odd_part(build(Cyclic(4)))
    with pytest.raises(PreconditionError):
        unique_odd_part(z3xz3)


@pytest.mark.parametrize("n", [3, 5, 15])
def test_characteristic_subgroups_dihedral(n):
    N = D(2 * n)
    chars = characteristic_subgroups(N, automorphism_group(N))
    divisors = {n // d for d in range(1, n + 1) if n % d == 0}
    expected = sorted({1, 2 * n} | divisors)
    assert sorted(len(S) for S in chars) == expected


def test_characteristic_subgroups_cyclic():
    N = C(6)
    chars = characteristic_subgroups(N, automorphism_group(N))
    assert sorted(len(S) for S in chars) == [1, 2, 3, 6]


def test_characteristic_subgroups_match_the_lattice():
    # the joins of Aut(N)-orbits against every subgroup tested against
    # every automorphism: catalog N up to order 130, the order-12 classes
    # and A4 among them, and C2xC2xC2, whose 7 involutions are one orbit
    cases = [*characteristic_cases(range(1, 131)), ("C2xC2xC2", build(parse_group_spec("C2xC2xC2")))]
    checked, bad = tally(cases, characteristic_differs)
    assert checked == 135 and not bad


def test_characteristic_subgroups_are_kept_on_n():
    N = D(30)
    aut = automorphism_group(N)
    assert characteristic_subgroups(N, aut) is characteristic_subgroups(N, aut)


def test_characteristic_subgroups_above_the_lattice_bound():
    # |C402| is past SUBGROUP_BOUND and |Aut C402| = 132; the orbits are
    # the elements of each order, so the characteristic subgroups are the
    # cyclic ones, one per divisor, and the lattice is not walked
    N = C(402)
    chars = characteristic_subgroups(N, automorphism_group(N))
    assert [len(S) for S in chars] == [1, 2, 3, 6, 67, 134, 201, 402]
    assert not memo_of(N, all_subgroups)


def test_is_normal(s3):
    rot = next(S for S in all_subgroups(s3) if len(S) == 3)
    refl = next(S for S in all_subgroups(s3) if len(S) == 2)
    assert is_normal(s3, rot)
    assert not is_normal(s3, refl)


def test_left_translation_is_homomorphism():
    G = build(SemidirectCC(3, 2, 2))
    for a, b in itertools.product(range(len(G)), repeat=2):
        lam_ab = left_translation(G, G.rows()[a][b])
        composed = perm.compose(left_translation(G, a), left_translation(G, b))
        assert lam_ab == composed


def test_regular_representation_is_regular():
    R = regular_representation(build(SemidirectCC(3, 2, 2)))
    assert is_regular(R)


def test_identity_is_index_zero():
    for G in (C(6), D(12), build(SemidirectCC(7, 3, 2))):
        assert G.identity_index == 0
        assert G.elements[0] == perm.identity(G.degree)


def compose_table(G):
    # the table straight from the definition, one perm.compose per entry
    return [
        tuple(G.index_of(perm.compose(p, q)) for q in G.elements)
        for p in G.elements
    ]


def intransitive_c3_c3_c2():
    # C3 x C3 x C2 on the orbits {0,1,2}, {3,4,5}, {6,7}: no one point
    # separates its elements, so a base needs a point from each orbit
    return closure(
        [(1, 2, 0, 3, 4, 5, 6, 7), (0, 1, 2, 4, 5, 3, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)]
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: C(1),
        lambda: PermGroup(3, [perm.identity(3)]),
        lambda: C(2),
        lambda: D(6),
        lambda: D(12),
        lambda: next(e.group for e in catalog(12) if e.spec.text() == "A4"),
        intransitive_c3_c3_c2,
        lambda: holomorph(C(6)).group,
        lambda: automorphism_group(D(42)),
        lambda: automorphism_group(D(66)),
    ],
    ids=[
        "C1",
        "trivial-on-3",
        "C2",
        "D6",
        "D12",
        "A4",
        "C3xC3xC2-intransitive",
        "Hol(C6)",
        "Aut(D42)",
        "Aut(D66)",
    ],
)
def test_table_matches_compose(make):
    G = fresh_copy(make())
    assert G.table() == compose_table(G)


def test_table_matches_lookup_oracle():
    # each table, read off a regular group's elements or built by the row
    # walk, equals the one looked up entry by entry from the greedy base:
    # on fresh copies of every catalog group up to order 210, of A4,
    # C2xC2, C2xC6, Hol(C3), C1 and C2xC2xC2, and on Aut(N) for each
    # catalog N up to order 110 whose Aut(N) has a table
    c2 = Cyclic(2)
    extras = [
        ("A4", build(Alternating4())),
        ("C2xC2", build(DirectProduct(c2, c2))),
        ("C2xC6", build(DirectProduct(c2, Cyclic(6)))),
        ("Hol(C3)", holomorph(C(3)).group),
        ("C1", build(Cyclic(1))),
        ("C2xC2xC2", build(DirectProduct(DirectProduct(c2, c2), c2))),
    ]
    cases = [*table_cases(range(1, 211), range(1, 111)), *((n, fresh_copy(G)) for n, G in extras)]
    assert tally(cases, table_differs) == (369, [])


def test_a_regular_group_is_its_own_table(monkeypatch):
    # fresh copies of regular groups read their rows off their elements,
    # with no base lookup and no composed row; A4, Hol(C3) and Aut(D6)
    # (order 6 on 6 points, but every element fixes index 0) take the
    # row walk and equal the looked-up table
    regular = [fresh_copy(G) for G in (D(30), C(1), build(SemidirectCC(15, 2, 4)))]
    walked = [
        fresh_copy(build(Alternating4())),
        fresh_copy(holomorph(C(3)).group),
        automorphism_group.__wrapped__(D(6)),
    ]
    assert [(len(G), G.degree) for G in walked] == [(12, 4), (6, 3), (6, 6)]
    oracles = [lookup_table(G) for G in walked]
    calls = []
    base_lookup, composer = PermGroup._base_lookup, perm.composer
    monkeypatch.setattr(PermGroup, "_base_lookup", lambda G: calls.append("base") or base_lookup(G))
    monkeypatch.setattr(perm, "composer", lambda q: calls.append("composer") or composer(q))
    for G in regular:
        table = G.table()
        assert type(table) is list and len(table) == len(G)
        assert all(table[i] is p for i, p in enumerate(G.elements))
    assert calls == []
    assert [G.table() for G in walked] == oracles
    assert calls.count("base") == 3 and "composer" in calls


@pytest.mark.parametrize(
    "degree, elements",
    [
        (3, [(0, 1, 2), (1, 2, 0)]),
        (4, [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)]),
        (4, [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)]),
        (2, [(1, 0)]),
    ],
    ids=["one-point-base", "two-point-base", "klein-four-less-one", "no-identity"],
)
def test_table_refuses_elements_not_closed(degree, elements):
    # a product outside the list has no index: with a one-point base its
    # lookup reads None, with more points it misses the key
    G = PermGroup(degree, elements)
    with pytest.raises(PreconditionError, match="not closed"):
        G.table()
    assert not memo_of(G, PermGroup.table)


def test_identity_index_refuses_elements_without_identity():
    # the same refusal as table(), which reads identity_index first
    G = PermGroup(3, [(1, 2, 0), (2, 0, 1)])
    with pytest.raises(PreconditionError, match="not closed: no identity"):
        G.identity_index
    with pytest.raises(PreconditionError, match="not closed: no identity"):
        G.table()
    H = PermGroup(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert H.identity_index == H.identity_index == 0


def test_a_given_base_is_checked_and_used():
    G = intransitive_c3_c3_c2()
    with pytest.raises(PreconditionError, match="does not tell"):
        PermGroup(G.degree, G.elements, base=(0, 3)).table()
    H = PermGroup(G.degree, G.elements, base=(6, 3, 0))
    assert H._base_lookup()[0] == (6, 3, 0)
    assert H.table() == lookup_table(G) == compose_table(G)


def test_automorphism_group_takes_the_frame_base():
    # an automorphism is fixed by its images of N's frame generators;
    # Aut(D102) and Aut(D110) are above TABLE_LIMIT, where rows take the
    # same base
    assert [
        name for name, N in catalog_cases(range(1, 111))
        if automorphism_group(N)._base_lookup()[0] != generator_frame(N)[0]
    ] == []


@pytest.mark.parametrize(
    "make, size",
    [
        (lambda: PermGroup(3, [perm.identity(3)]), 0),
        (lambda: C(30), 1),
        # C6 on the orbits {0,1} and {2..7}: point 0 splits it in two, but
        # the greedy choice takes point 2, which alone tells all six apart
        (lambda: closure([(1, 0, 3, 4, 5, 6, 7, 2)]), 1),
        (lambda: holomorph(C(6)).group, 2),
        (lambda: automorphism_group(D(66)), 2),
        (intransitive_c3_c3_c2, 3),
    ],
    ids=[
        "trivial-on-3",
        "C30",
        "C6-two-orbits",
        "Hol(C6)",
        "Aut(D66)",
        "C3xC3xC2-intransitive",
    ],
)
def test_base_tells_elements_apart(make, size):
    G = make()
    base = _base(G.elements, G.degree)
    assert len(set(base)) == len(base) == size
    assert len({tuple(p[b] for b in base) for p in G.elements}) == len(G)
    # the base stops growing as soon as it tells the elements apart
    shorter = base[:-1]
    assert not base or len({tuple(p[b] for b in shorter) for p in G.elements}) < len(G)


def test_permgroup_refuses_repeated_elements():
    e = perm.identity(3)
    with pytest.raises(PreconditionError, match="not distinct"):
        PermGroup(3, [e, e])
    with pytest.raises(PreconditionError, match="not distinct"):
        PermGroup(3, [e, (1, 2, 0), (1, 2, 0), (2, 0, 1)])


def test_base_refuses_repeated_elements():
    # no point splits two equal permutations, so no base exists
    with pytest.raises(PreconditionError, match="not distinct"):
        _base((perm.identity(3),) * 2, 3)


@pytest.mark.parametrize(
    "make, base",
    [(lambda: build(Alternating4()), []), (intransitive_c3_c3_c2, [0, 3])],
    ids=["empty", "two-of-three-orbits"],
)
def test_table_refuses_a_base_that_does_not_tell_elements_apart(monkeypatch, make, base):
    G = fresh_copy(make())
    monkeypatch.setattr("hopfgalois.groups._base", lambda elements, degree: base)
    with pytest.raises(PreconditionError, match="does not tell"):
        G.table()
    assert not memo_of(G, PermGroup.table)


def test_products_below_table_limit_never_compose(monkeypatch):
    # on untabled copies the first product builds the table, so no product
    # anywhere in the scan composes permutations
    sd, d30 = build(SemidirectCC(15, 2, 4)), D(30)
    expected = count_crossed_pairs(sd, d30)
    G, N = fresh_copy(sd), fresh_copy(d30)
    A, B = (fresh_copy(build(Alternating4())) for _ in range(2))

    def refuse(p, q):
        raise AssertionError("perm.compose called below TABLE_LIMIT")

    fresh = [fresh_copy(H) for H in (sd, d30, A)]
    oracles = [(cycle_orders(H), inverse_lookup(H)) for H in fresh]
    monkeypatch.setattr(perm, "compose", refuse)
    assert count_crossed_pairs(G, N) == expected
    assert are_isomorphic(A, B) is not None
    # the power walk reads the rows, so on untabled copies it builds the table
    assert [(H.orders(), H.inverses()) for H in fresh] == oracles


def test_rows_above_table_limit_equal_composed_products(monkeypatch):
    G = build(Cyclic(1201))
    assert len(G) > TABLE_LIMIT
    rows = G.rows()
    rng = random.Random(1201)
    samples = [(0, 7), (5, 1000), (1200, 1200), (613, 2)]
    samples += [(rng.randrange(len(G)), rng.randrange(len(G))) for _ in range(50)]
    for i, j in samples:
        product = G.index_of(perm.compose(G.elements[i], G.elements[j]))
        assert rows[i][j] == G.rows()[i][j] == product
    with pytest.raises(BoundExceededError):
        G.table()
    assert are_isomorphic(G, fresh_copy(G)) is not None
    # below the limit the rows are the table, built on the first call
    for H in (fresh_copy(D(30)), fresh_copy(holomorph(C(6)).group)):
        assert H.rows() is H.table()
        assert H.rows() == compose_table(H)
    # and above a lowered limit a non-abelian group's rows equal them too,
    # with no table built
    monkeypatch.setattr("hopfgalois.groups.TABLE_LIMIT", 10)
    H = fresh_copy(D(30))
    rows = [tuple(row[j] for j in range(len(H))) for row in H.rows()]
    assert rows == compose_table(H) and not memo_of(H, PermGroup.table)


def test_rows_above_table_limit_look_up_base_images():
    # Aut(D102), 1632 elements, needs a base of more than one point: its
    # rows are built once and kept, each entry is the composed product, the
    # power walk along them meets the oracles, and table() still refuses
    A = fresh_copy(automorphism_group(D(102)))
    assert len(A) > TABLE_LIMIT and len(_base(A.elements, A.degree)) > 1
    rows = A.rows()
    assert A.rows() is rows and not memo_of(A, PermGroup.table)
    rng = random.Random(102)
    last = len(A) - 1
    samples = [(0, 0), (0, last), (last, 0), (last, last)]
    samples += [(rng.randrange(len(A)), rng.randrange(len(A))) for _ in range(300)]
    for i, j in samples:
        assert rows[i][j] == A.index_of(perm.compose(A.elements[i], A.elements[j]))
    assert (A.orders(), A.inverses()) == (cycle_orders(A), inverse_lookup(A))
    with pytest.raises(BoundExceededError):
        A.table()
    assert A.rows() is rows and not memo_of(A, PermGroup.table)


def power_walk_groups():
    """(name, group): every catalog group up to order 210, Aut(N) for each
    one up to order 110, A4, C2xC2xC2, Hol(D10), the one-element group and
    C1201, which is past TABLE_LIMIT."""
    cases = list(catalog_cases(range(1, 211)))
    cases += [(f"Aut({name})", automorphism_group(G)) for name, G in cases if len(G) <= 110]
    c2 = Cyclic(2)
    cases += [
        ("A4", build(Alternating4())),
        ("C2xC2xC2", build(DirectProduct(DirectProduct(c2, c2), c2))),
        ("Hol(D10)", holomorph(D(10)).group),
        ("C1", build(Cyclic(1))),
        ("C1201", build(Cyclic(1201))),
    ]
    return cases


def power_walk_copies():
    # a fresh copy of each group, on which the walk reads the rows, a table
    # built on first read or above TABLE_LIMIT rows that look entries up by
    # base images; and up to TABLE_LIMIT one whose table is built first,
    # whose table it reads
    for name, G in power_walk_groups():
        copies = [fresh_copy(G)]
        if len(G) <= TABLE_LIMIT:
            copies.append(fresh_copy(G))
            copies[-1].table()
        yield name, *copies


def test_power_walk_matches_oracles():
    assert tally(power_walk_copies(), orders_differ)[1] == []


def test_power_walk_refuses_a_table_that_is_not_a_group():
    # in this table the row of (1, 2, 0) runs 1 -> 2 -> 2 -> ..., never
    # back to the identity, so the walk stops after |G| = 3 steps; it runs
    # in a capped child, where a walk without that bound ends in a
    # MemoryError instead of filling this machine's memory
    code = (
        "from hopfgalois.groups import PermGroup\n"
        "G = PermGroup(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])\n"
        "G.rows = lambda: [[0, 1, 2], [1, 2, 2], [2, 0, 1]]\n"
        "G.orders()\n"
    )
    done = capped_python(["-c", code], timeout=60)
    assert done.stderr.splitlines()[-1] == (
        "hopfgalois.errors.PreconditionError:"
        " the powers of (1, 2, 0) do not reach the identity in 3 steps"
    )


def test_extension_plan_is_built_once_per_group(monkeypatch):
    # Aut(N)'s chain and a full count of crossed pairs build one plan per
    # group object per frame: N's smallest frame for the chain, G's greedy
    # frame for the Hom walk and G's smallest frame for the crossed-hom scan
    sd, d30 = build(SemidirectCC(15, 2, 4)), D(30)
    expected = count_crossed_pairs(sd, d30)
    G, N = fresh_copy(sd), fresh_copy(d30)
    planned = []
    real = groups._extension_plan

    def counting(H, gen_idxs):
        planned.append(H)
        return real(H, gen_idxs)

    monkeypatch.setattr(groups, "_extension_plan", counting)
    factory._aut_chain(N)
    assert count_crossed_pairs(G, N) == expected
    assert generator_frame(G) is generator_frame(G)
    assert greedy_frame(G) is greedy_frame(G)
    assert planned == [N, G, G]


def test_module_caches_are_keyed_by_value():
    # what is derived from a group is kept on it by ``derived``; a module
    # cache keyed by group objects would keep every group it saw alive
    found = set()
    for info in pkgutil.iter_modules(hopfgalois.__path__):
        if info.name != "__main__":  # importing it runs the command line
            module = importlib.import_module(f"hopfgalois.{info.name}")
            for value in vars(module).values():
                inside = vars(value).values() if isinstance(value, type) else ()
                found.update(x for x in (value, *inside) if hasattr(x, "cache_clear"))
    assert found == {factory.build, factory._catalog, brace._structure_of}


def generating_set_cases(top):
    # every catalog group up to order ``top``, Aut(N) for each one up to
    # order 66, A4, C2xC2xC2, Hol(C6) and the one-element group
    cases = list(catalog_cases(range(1, top + 1)))
    cases += [(f"Aut({name})", automorphism_group(G)) for name, G in cases if len(G) <= 66]
    c2 = Cyclic(2)
    cases += [
        ("A4", build(Alternating4())),
        ("C2xC2xC2", build(DirectProduct(DirectProduct(c2, c2), c2))),
        ("Hol(C6)", holomorph(C(6)).group),
        ("C1", build(Cyclic(1))),
    ]
    return cases


def test_minimal_generating_set_matches_every_combination_search():
    # the pruned search finds the set the search over every combination
    # finds; C2xC2xC2xC11 needs three generators
    c2 = Cyclic(2)
    c2c2c2 = DirectProduct(DirectProduct(c2, c2), c2)
    cases = generating_set_cases(210)
    cases.append(("C2xC2xC2xC11", build(DirectProduct(c2c2c2, Cyclic(11)))))
    assert tally(cases, generating_set_differs)[1] == []


def test_generating_set_matches_restart_walk():
    # the walk that resumes from the set reached so far finds the
    # generators of the walk that restarts from the identity, on every
    # catalog table up to order 210 and every Aut(N) table up to N = 66
    tables = ((name, G.table(), G.identity_index) for name, G in generating_set_cases(210))
    assert tally(tables, walk_differs)[1] == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(0, 2**32))
def test_generating_set_matches_restart_walk_on_random_loops(n, seed):
    # ``brace`` runs _generating_set before Light's associativity test,
    # so its tables may be loops that are not groups
    table, e = random_loop(random.Random(seed), n)
    gens = _generating_set(table, e)
    assert gens == restart_generating_set(table, e)
    assert len(_reach(table.__getitem__, (e,), gens)[0]) == n


def naive_orbit(step, start, gens):
    # (order, parent) of a textbook breadth-first search with a deque
    order, parent = [], {}
    queue = deque()
    for x in start:
        if x not in parent:
            parent[x] = None
            order.append(x)
            queue.append(x)
    while queue:
        x = queue.popleft()
        for pos, g in enumerate(gens):
            y = step(x)[g]
            if y not in parent:
                parent[y] = (x, pos)
                order.append(y)
                queue.append(y)
    return order, parent


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.permutations(range(d)), min_size=1, max_size=3),
    st.lists(st.frozensets(st.integers(0, d - 1)), min_size=1, max_size=3, unique=True),
)))
def test_reach_on_frozensets_matches_naive_search(case):
    # points may be any hashable value: here sets of points moved by
    # permutations, as realize walks subgroups of Hol(N) under conjugation
    perms, start = case

    def step(S):
        return [frozenset(p[x] for x in S) for p in perms]

    found = _reach(step, start, range(len(perms)))
    assert found == naive_orbit(step, start, range(len(perms)))


def greedy_frame_is_greedy(G):
    # every index below generator k + 1 is reached from generators 0..k,
    # generator k + 1 is not, and the generators generate G
    gens, step, start = greedy_frame(G)[0], G.rows().__getitem__, (G.identity_index,)
    for k in range(len(gens) - 1):
        span = set(_reach(step, start, gens[: k + 1])[0])
        if gens[k + 1] in span or not span.issuperset(range(gens[k + 1])):
            return False
    return len(_reach(step, start, gens)[0]) == len(G)


def test_greedy_frame_spans_every_lower_index():
    # on the generating-set cases up to order 210; the one-element group's
    # frame is its identity
    cases = generating_set_cases(210)
    c1 = build(Cyclic(1))
    assert [name for name, G in cases if not greedy_frame_is_greedy(G)] == []
    assert greedy_frame(c1)[0] == generator_frame(c1)[0] == (c1.identity_index,)


@st.composite
def small_closures(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    try:
        return closure([tuple(g) for g in gens], cap=120)
    except CapExceededError:
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_closures())
@example(closure([(0,)]))
@example(closure([(0, 1, 2)]))
@example(closure([(1, 0)]))
@example(closure([(0, 2, 1)]))
def test_table_matches_compose_on_random_closures(G):
    # orders 1 and 2 given explicitly: there a one-argument itemgetter
    # would return a scalar
    assert G.table() == compose_table(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_closures())
def test_greedy_frame_spans_every_lower_index_on_random_closures(G):
    assert greedy_frame_is_greedy(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_closures())
def test_minimal_generating_set_matches_every_combination_search_on_random_closures(G):
    assert G.minimal_generating_set() == every_combination_generating_set(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_closures(), st.data())
def test_bfs_order_is_the_first_reach_in_scan_order(G, data):
    gens = [G.index_of(g) for g in G.generators]
    order, parent = bfs_order(G, gens)
    assert order[0] == G.identity_index and parent[order[0]] is None
    assert sorted(order) == list(range(len(G)))

    def times(x, pos):
        return G.index_of(perm.compose(G.elements[x], G.elements[gens[pos]]))

    # the first (x, pos) in scan order, x along ``order``, that reaches y
    first = {}
    for x in order:
        for pos in range(len(gens)):
            first.setdefault(times(x, pos), (x, pos))
    place = {x: k for k, x in enumerate(order)}
    for y in order[1:]:
        x, pos = parent[y]
        assert place[x] < place[y]
        assert times(x, pos) == y
        assert parent[y] == first[y]
    # from a subgroup of <A + B>, here <A>, the walk reaches <A + B>
    indices = st.lists(st.integers(0, len(G) - 1), max_size=3)
    a, b = data.draw(indices), data.draw(indices)
    seed = _closure_within(G, a, len(G))
    reached, _ = _reach(G.rows().__getitem__, seed, a + b)
    assert frozenset(reached) == _closure_within(G, a + b, len(G))


def kernel_pairs():
    # every catalog pair at orders up to 42 (A4 among them at 12), and
    # (C2xC2xC2, C2xC2xC2), whose frames have three generators
    pairs = [(G, N) for _, G, N in pair_cases(range(1, 43))]
    c2_cubed = build(DirectProduct(DirectProduct(Cyclic(2), Cyclic(2)), Cyclic(2)))
    return pairs + [(c2_cubed, c2_cubed)]


def scans_differ(G, H, frame, cands, **kwargs):
    return list(extend_images(G, H, frame, cands, **kwargs)) != list(
        full_check_extend_images(G, H, frame, cands, **kwargs)
    )


def test_extend_images_matches_full_check_oracle():
    # the triple plans, without the breadth-first tree's checks and with
    # the twist read in place, give the tuples of the column plans with
    # all n·k checks, in the same order: for Hom(G, Aut N) over both of
    # G's frames, for the crossed homomorphisms of every f over G's
    # smallest frame, and for every scan of Aut(N)'s chain
    pairs = kernel_pairs()
    assert len(pairs) == 135
    bad = []
    for G in {G for pair in pairs for G in pair}:
        for frame in (generator_frame(G), greedy_frame(G)):
            gens, steps, checks = frame
            parent = bfs_order(G, gens)[1]
            n, k = len(G), len(gens)
            if len(checks) != n * k - (n - 1) or any(
                parent[xs] == (x, pos) for x, xs, pos in checks
            ):
                bad.append(f"plan of {G.label}")
    for N in {N for _, N in pairs}:
        frame = generator_frame(N)
        cands = factory.iso_candidates(N, N, frame[0])
        for c in cands[0]:
            if scans_differ(N, N, frame, [[c], *cands[1:]], injective=True):
                bad.append(f"Aut({N.label}) at {c}")
    crossed = 0
    for G, N in pairs:
        aut = automorphism_group(N)
        for frame in (generator_frame(G), greedy_frame(G)):
            if scans_differ(G, aut, frame, hom_candidates(G, aut, frame[0])):
                bad.append(f"Hom({G.label}, Aut {N.label})")
        frame = generator_frame(G)
        for f in homomorphisms(G, aut):
            twist = [aut.elements[b] for b in f.images]
            cands = [realize._cyclic_candidates(N, twist[a], G.order_of(a)) for a in frame[0]]
            crossed += 1
            if scans_differ(G, N, frame, cands, twist=twist, injective=True):
                bad.append(f"crossed ({G.label}, {N.label}) at {f.images}")
    assert bad == [] and crossed > 0


def test_cyclic_candidates_match_per_x_oracle():
    # the candidate walk, which shares one verdict along each cycle of
    # f(a), equals the walk from every x on its own at each (N, f(a),
    # ord a) the kernel pairs give, for every f of Hom(G, Aut N) (the
    # trivial f's f(a) of order 1 among them) and every element a of G,
    # so every generator of every frame
    keys = {}
    for G, N in kernel_pairs():
        for f in homomorphisms(G, automorphism_group(N)):
            keys.setdefault(N, set()).update(
                (f.image_perm(a), G.order_of(a)) for a in range(len(G))
            )
    walk = realize._cyclic_consistent_images
    bad = [
        (N.label, key) for N, found in keys.items() for key in found
        if walk(N, *key) != per_x_cyclic_images(N, *key)
    ]
    assert sum(map(len, keys.values())) > 1000 and bad == []


def test_hom_candidates_kept_on_aut_match_a_direct_scan(monkeypatch):
    # the Hom walk reads its candidates from Aut(N)'s memo, keyed by the
    # generator orders, which every G swept against N shares: the lists
    # each walk is handed, and the memo's entry for each of G's two
    # frames, are hom_candidates'; after the sweep every entry the walks
    # left there is a direct scan of its key
    handed = []
    walk = realize._orbit_walk

    def spy(G, H, frame, cands, *args, **kwargs):
        handed.append(cands)
        return walk(G, H, frame, cands, *args, **kwargs)

    monkeypatch.setattr(realize, "_orbit_walk", spy)
    bad = []
    for G, N in kernel_pairs():
        aut = automorphism_group(N)
        handed.clear()
        next(realize._hom_orbit_reps(G, aut))
        if handed != [tuple(map(tuple, hom_candidates(G, aut, greedy_frame(G)[0])))]:
            bad.append((G.label, N.label))
        for frame in (generator_frame(G), greedy_frame(G)):
            gens = frame[0]
            kept = realize._hom_candidates(aut, tuple(G.order_of(g) for g in gens))
            if kept != tuple(map(tuple, hom_candidates(G, aut, gens))):
                bad.append((G.label, N.label, gens))
    for N in {N for _, N in kernel_pairs()}:
        aut = automorphism_group(N)
        for (orders,), kept in memo_of(aut, realize._hom_candidates).items():
            scan = [[j for j, k in enumerate(aut.orders()) if r % k == 0] for r in orders]
            if kept != tuple(map(tuple, scan)):
                bad.append((N.label, orders))
    assert bad == []
