import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfgalois import (
    all_subgroups,
    catalog,
    holomorph,
    are_isomorphic,
    characteristic_subgroups,
    automorphism_group,
    build,
    closure,
    element_order,
    homomorphisms,
    is_almost_sylow_cyclic,
    is_c_group,
    is_cyclic,
    is_regular,
    is_solvable,
    regular_representation,
    sylow_subgroup,
    unique_odd_part,
    Cyclic,
    Dihedral,
    DirectProduct,
    SemidirectCC,
)
from hopfgalois import perm
from hopfgalois.errors import (
    BoundExceededError,
    CapExceededError,
    PreconditionError,
)
from hopfgalois.groups import PermGroup, is_normal, left_translation

from conftest import C, D, brute_force_homomorphisms


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


def test_element_order():
    G = closure(list(hol_z6_gens()))
    assert element_order(G, G.identity_index) == 1
    assert element_order(G, (1, 2, 3, 4, 5, 0)) == 6
    assert element_order(G, (0, 5, 4, 3, 2, 1)) == 2


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
    n = len(G)
    closed = set()
    for mask in range(1 << n):
        if not mask & (1 << G.identity_index):
            continue
        subset = {i for i in range(n) if mask & (1 << i)}
        if n % len(subset):
            continue
        if all(G.mul(a, b) in subset for a in subset for b in subset):
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


def test_are_isomorphic_identity():
    G = C(6)
    iso = are_isomorphic(G, G)
    assert iso is not None and iso.is_bijective() and iso.verify()


def test_are_isomorphic_rejects(s3):
    assert are_isomorphic(C(6), s3) is None


def test_are_isomorphic_finds(s3):
    iso = are_isomorphic(s3, D(6))
    assert iso is not None and iso.is_bijective() and iso.verify()


def test_is_solvable():
    assert is_solvable(C(15))
    assert is_solvable(D(30))
    a5 = closure([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert len(a5) == 60
    assert not is_solvable(regular_representation(a5))


def test_sylow():
    assert len(sylow_subgroup(C(6), 3)) == 3
    S = sylow_subgroup(D(30), 5)
    assert len(S) == 5 and is_cyclic(S)
    klein = sylow_subgroup(D(12), 2)
    assert len(klein) == 4 and not is_cyclic(klein)
    with pytest.raises(PreconditionError):
        sylow_subgroup(C(6), 5)


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


def test_unique_odd_part_d6():
    H = unique_odd_part(D(6))
    assert len(H) == 3
    assert sorted(element_order(H, i) for i in range(3)) == [1, 3, 3]


def test_unique_odd_part_z6():
    G = C(6)
    H = unique_odd_part(G)
    translations = {p[0] for p in H.elements}
    assert translations == {0, 2, 4}


def test_unique_odd_part_d30():
    H = unique_odd_part(D(30))
    assert len(H) == 15 and is_cyclic(H)


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


def test_is_normal(s3):
    rot = next(S for S in all_subgroups(s3) if len(S) == 3)
    refl = next(S for S in all_subgroups(s3) if len(S) == 2)
    assert is_normal(s3, rot)
    assert not is_normal(s3, refl)


def test_left_translation_is_homomorphism():
    G = build(SemidirectCC(3, 2, 2))
    for a, b in itertools.product(range(len(G)), repeat=2):
        lam_ab = left_translation(G, G.mul(a, b))
        composed = perm.compose(left_translation(G, a), left_translation(G, b))
        assert lam_ab == composed


def test_regular_representation_is_regular():
    R = regular_representation(build(SemidirectCC(3, 2, 2)))
    assert is_regular(R)


def test_identity_is_index_zero():
    for G in (C(6), D(12), build(SemidirectCC(7, 3, 2))):
        assert G.identity_index == 0
        assert G.elements[0] == perm.identity(G.degree)


def test_order_profile_and_table_consistency():
    G = D(12)
    table = G.table()
    for i, j in itertools.product(range(len(G)), repeat=2):
        assert table[i][j] == G.index_of(
            perm.compose(G.elements[i], G.elements[j])
        )


def compose_table(G):
    # the table straight from the definition, one perm.compose per entry
    return [
        tuple(G.index_of(perm.compose(p, q)) for q in G.elements)
        for p in G.elements
    ]


def fresh_copy(G):
    # tables are built once per object; a copy makes table() build anew
    return PermGroup(G.degree, G.elements)


@pytest.mark.parametrize(
    "make",
    [
        lambda: C(1),
        lambda: C(2),
        lambda: D(6),
        lambda: next(e.group for e in catalog(12) if e.spec.text() == "A4"),
        lambda: holomorph(C(6)).group,
        lambda: automorphism_group(D(42)),
    ],
    ids=["C1", "C2", "D6", "A4", "Hol(C6)", "Aut(D42)"],
)
def test_table_matches_compose(make):
    G = fresh_copy(make())
    assert G.table() == compose_table(G)


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
def test_table_matches_compose_on_random_closures(G):
    assert G.table() == compose_table(G)
