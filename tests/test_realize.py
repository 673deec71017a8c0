from collections import Counter

import pytest

from hopfgalois import (
    Cyclic,
    Dihedral,
    SemidirectCC,
    SemidirectZ2,
    automorphism_group,
    build,
    catalog,
    class_index,
    count_crossed_pairs,
    crossed_homomorphisms,
    holomorph,
    homomorphisms,
    is_regular,
    realizable_via_cocycles,
    realizable_via_search,
    regular_subgroups,
    subgroup_from_cocycle,
    transport_characteristic,
    unique_odd_part,
)
from hopfgalois import realize
from hopfgalois.errors import BoundExceededError, CountingBugError, PreconditionError
from hopfgalois.factory import is_squarefree
from hopfgalois.groups import subgroups_of_order
from hopfgalois.realize import hom_orbits

from conftest import C, D, brute_force_bijective_crossed_homs


def trivial_hom(G, H):
    return next(f for f in homomorphisms(G, H) if len(set(f.images)) == 1)


def test_crossed_homs_trivial_f_counts():
    G = C(6)
    aut = automorphism_group(G)
    f = trivial_hom(G, aut)
    # with trivial f the bijective crossed homomorphisms are isomorphisms
    assert len(crossed_homomorphisms(f, G, G)) == 2


def test_crossed_homs_no_isomorphism(s3):
    G = C(6)
    aut = automorphism_group(s3)
    f = trivial_hom(G, aut)
    assert crossed_homomorphisms(f, G, s3) == []


def test_crossed_homs_z3_brute_force():
    G = C(3)
    aut = automorphism_group(G)
    f = trivial_hom(G, aut)
    found = crossed_homomorphisms(f, G, G)
    assert len(found) == 2
    assert [c.g for c in found] == brute_force_bijective_crossed_homs(f, G, G)


@pytest.mark.parametrize(
    "g_spec,n_spec",
    [
        (Cyclic(6), Dihedral(6)),
        (Cyclic(6), SemidirectCC(3, 2, 2)),
        (Dihedral(6), Cyclic(6)),
    ],
)
def test_crossed_homs_all_fs_brute_force(g_spec, n_spec):
    G, N = build(g_spec), build(n_spec)
    aut = automorphism_group(N)
    for f in homomorphisms(G, aut):
        fast = [c.g for c in crossed_homomorphisms(f, G, N)]
        assert fast == brute_force_bijective_crossed_homs(f, G, N)


@pytest.mark.parametrize(
    "g_spec,n_spec",
    [
        (Cyclic(6), Dihedral(6)),
        (Dihedral(6), Cyclic(6)),
        (Dihedral(10), Dihedral(10)),
    ],
)
def test_crossed_homs_limit_one_is_a_member(g_spec, n_spec):
    G, N = build(g_spec), build(n_spec)
    aut = automorphism_group(N)
    seen = set()
    for f in homomorphisms(G, aut):
        full = [c.g for c in crossed_homomorphisms(f, G, N)]
        first = [c.g for c in crossed_homomorphisms(f, G, N, limit=1)]
        if full:
            assert len(first) == 1 and first[0] in full
        else:
            assert first == []
        seen.add(bool(full))
    assert seen == {True, False}


def test_crossed_hom_law_holds_on_all_pairs():
    w = realizable_via_cocycles(C(6), D(6))
    assert w is not None and w.bijective and w.verify_law()


def test_subgroup_from_cocycle_identity_is_translations():
    N = C(6)
    hol = holomorph(N)
    aut = automorphism_group(N)
    f = trivial_hom(N, aut)
    cocycles = crossed_homomorphisms(f, N, N)
    identity_c = next(
        c for c in cocycles if c.g == tuple(range(len(N)))
    )
    rec = subgroup_from_cocycle(identity_c, hol)
    assert frozenset(rec.subgroup.elements) == frozenset(hol.lam)


def test_subgroup_from_cocycle_regular_with_aut_redundancy():
    # every (f, g) pair yields a regular subgroup, and each subgroup is
    # hit by exactly |Aut(G)| distinct pairs
    G, N = D(6), C(6)
    hol = holomorph(N)
    aut = automorphism_group(N)
    hits = {}
    for f in homomorphisms(G, aut):
        for c in crossed_homomorphisms(f, G, N):
            rec = subgroup_from_cocycle(c, hol)
            assert is_regular(rec.subgroup)
            key = frozenset(rec.subgroup.elements)
            hits[key] = hits.get(key, 0) + 1
    aut_g = len(automorphism_group(G))
    assert hits and all(v == aut_g for v in hits.values())


def test_realizable_reflexive():
    for spec in (Cyclic(6), Dihedral(6), SemidirectZ2(15, 4)):
        N = build(spec)
        assert realizable_via_cocycles(N, N) is not None


def test_realizable_pairs():
    assert realizable_via_cocycles(C(6), D(6)) is not None
    assert realizable_via_cocycles(D(6), C(6)) is not None


def test_not_realizable_pair():
    a4 = catalog(12)[4].group
    c12 = catalog(12)[0].group
    assert realizable_via_cocycles(c12, a4) is None
    assert not realizable_via_search(c12, a4)


def test_order_mismatch():
    with pytest.raises(PreconditionError):
        realizable_via_cocycles(C(6), C(10))


def test_regular_subgroups_hol_z3():
    recs = regular_subgroups(holomorph(C(3)))
    assert len(recs) == 1 and recs[0].iso_text == "C3"


def test_regular_subgroups_hol_z6():
    recs = regular_subgroups(holomorph(C(6)))
    assert [r.iso_text for r in recs] in (["C6", "D6"], ["D6", "C6"])
    counts = {}
    for r in recs:
        counts[r.iso_text] = counts.get(r.iso_text, 0) + 1
    assert counts == {"C6": 1, "D6": 1}
    for r in recs:
        assert is_regular(r.subgroup)


def test_regular_subgroups_hol_z6_exact_elements():
    # hand derivation: the nonabelian regular subgroup of Hol(Z6) is
    # generated by x -> x + 2 and x -> 1 - x
    recs = regular_subgroups(holomorph(C(6)))
    nonabelian = next(r for r in recs if r.iso_text == "D6")
    plus2 = tuple((x + 2) % 6 for x in range(6))
    one_minus = tuple((1 - x) % 6 for x in range(6))
    from hopfgalois.groups import closure

    assert frozenset(nonabelian.subgroup.elements) == frozenset(
        closure([plus2, one_minus]).elements
    )
    cyclic = next(r for r in recs if r.iso_text == "C6")
    plus1 = tuple((x + 1) % 6 for x in range(6))
    assert frozenset(cyclic.subgroup.elements) == frozenset(
        closure([plus1]).elements
    )


@pytest.mark.parametrize("order", [4, 6, 10, 12, 14])
def test_regular_subgroups_match_lattice(order):
    # the full subgroup lattice is the reference; |Hol(D14)| = 588, so the
    # walk needs a raised bound; order 12 holds A4, whose generating pairs
    # all have element orders multiplying to less than 12
    for entry in catalog(order):
        hol = holomorph(entry.group)
        lattice = [
            frozenset(S.elements)
            for S in subgroups_of_order(hol.group, order, bound=600)
            if is_regular(S)
        ]
        found = [frozenset(r.subgroup.elements) for r in regular_subgroups(hol)]
        assert found == lattice, entry.spec.text()


@pytest.mark.parametrize(
    "order", [4, 12] + [n for n in range(1, 31) if is_squarefree(n)]
)
def test_catalog_classes_are_two_generated(order):
    # the generator-pair search is complete only under this condition
    for entry in catalog(order):
        assert len(entry.group.minimal_generating_set()) <= 2, entry.spec.text()


def test_regular_subgroups_is_memoized_per_holomorph():
    hol = holomorph(C(6))
    assert regular_subgroups(hol) is regular_subgroups(hol)


def test_regular_subgroups_order_bound():
    with pytest.raises(BoundExceededError):
        regular_subgroups(holomorph(build(Cyclic(31))))


@pytest.mark.parametrize(
    "spec,counts",
    [
        (Dihedral(14), {"C14": 14, "D14": 2}),
        (Dihedral(22), {"C22": 22, "D22": 2}),
        (
            SemidirectCC(15, 2, 11),
            {"C30": 6, "D30": 2, "SD(15,2;11)": 2, "SD(15,2;4)": 6},
        ),
    ],
    ids=["D14", "D22", "SD(15,2;11)"],
)
def test_generator_pair_counts(spec, counts):
    records = regular_subgroups(holomorph(build(spec)))
    assert {r.strategy for r in records} == {"generator-pairs"}
    assert dict(Counter(r.iso_text for r in records)) == counts


@pytest.mark.parametrize("order", [6, 10])
def test_oracle_equivalence(order):
    entries = catalog(order)
    for g in entries:
        for n in entries:
            cocycle = realizable_via_cocycles(g.group, n.group) is not None
            search = realizable_via_search(g.group, n.group)
            assert cocycle == search, (g.spec.text(), n.spec.text())


@pytest.mark.parametrize("order", [4, 6, 10, 12, 14])
def test_count_equivalence(order):
    # each regular subgroup isomorphic to G arises from |Aut(G)| pairs
    entries = catalog(order)
    for g in entries:
        aut_g = len(automorphism_group(g.group))
        target = class_index(g.group, entries)
        for n in entries:
            pairs = count_crossed_pairs(g.group, n.group)
            recs = regular_subgroups(holomorph(n.group))
            found = sum(1 for r in recs if r.iso_index == target)
            assert pairs == aut_g * found


def test_oracle_equivalence_order_30_aggregate():
    # for each N, the iso types found by the direct search must be exactly
    # the types the cocycle engine proves realizable against N
    entries = catalog(30)
    for ne in entries:
        found = {
            r.iso_index for r in regular_subgroups(holomorph(ne.group))
        }
        proved = {
            gi
            for gi, ge in enumerate(entries)
            if realizable_via_cocycles(ge.group, ne.group) is not None
        }
        assert found == proved, ne.spec.text()


def test_transport_full_and_trivial_subgroup():
    G, N = C(6), D(6)
    w = realizable_via_cocycles(G, N)
    full = N.subgroup_from_indices(range(len(N)))
    H, _ = transport_characteristic(w, full)
    assert len(H) == len(G)
    trivial = N.subgroup_from_indices([N.identity_index])
    H, _ = transport_characteristic(w, trivial)
    assert len(H) == 1


def test_transport_rotations():
    G, N = C(6), D(6)
    w = realizable_via_cocycles(G, N)
    M = unique_odd_part(N)
    H, inner = transport_characteristic(w, M)
    assert len(H) == 3 and inner is not None


def per_f_count(G, N):
    # the plain scan: one crossed-hom count per f in Hom(G, Aut N)
    aut = automorphism_group(N)
    return sum(len(crossed_homomorphisms(f, G, N)) for f in homomorphisms(G, aut))


def naive_first_witness(G, N):
    # the plain canonical scan: first f with a bijective crossed hom
    aut = automorphism_group(N)
    for f in homomorphisms(G, aut):
        found = crossed_homomorphisms(f, G, N, limit=1)
        if found:
            return f.images, found[0].g
    return None


def catalog_pairs(order, n_texts=None):
    entries = catalog(order)
    return [
        (g, n)
        for n in entries
        if n_texts is None or n.spec.text() in n_texts
        for g in entries
    ]


ORBIT_PAIRS = catalog_pairs(30) + catalog_pairs(42, {"SD(14,3;9)", "SD(7,6;3)"})


@pytest.mark.parametrize(
    "g,n", ORBIT_PAIRS, ids=[f"{g.spec.text()}-{n.spec.text()}" for g, n in ORBIT_PAIRS]
)
def test_orbit_count_matches_per_f_sum(g, n):
    assert count_crossed_pairs(g.group, n.group) == per_f_count(g.group, n.group)


@pytest.mark.parametrize("order", [6, 12, 30])
def test_hom_orbits_partition_hom(order):
    for g, n in catalog_pairs(order):
        aut = automorphism_group(n.group)
        homs = homomorphisms(g.group, aut)
        orbits = list(hom_orbits(g.group, aut, homs))
        assert sum(len(o) for _, o in orbits) == len(homs)
        positions = [homs.index(f) for f, _ in orbits]
        assert positions == sorted(positions) and positions[:1] == [0]


def _hom_with_big_orbit(G, N):
    aut = automorphism_group(N)
    homs = homomorphisms(G, aut)
    f, orbit = next((f, o) for f, o in hom_orbits(G, aut, homs) if len(o) > 1)
    return aut, homs, f


def test_orbit_leaving_hom_is_a_bug(monkeypatch):
    G, N = C(6), D(6)
    aut, homs, f = _hom_with_big_orbit(G, N)
    cut = [h for h in homs if h != f]  # an orbit of a later f now leaves Hom
    with pytest.raises(CountingBugError):
        list(hom_orbits(G, aut, cut))
    monkeypatch.setattr(realize, "homomorphisms", lambda G, H: cut)
    with pytest.raises(CountingBugError):
        count_crossed_pairs(G, N)


def test_orbit_sizes_not_summing_is_a_bug():
    G, N = C(6), D(6)
    aut, homs, f = _hom_with_big_orbit(G, N)
    with pytest.raises(CountingBugError):
        list(hom_orbits(G, aut, homs + [f]))


FIRST_HIT_PAIRS = [p for order in (6, 10, 12, 30) for p in catalog_pairs(order)]


@pytest.mark.parametrize(
    "g,n",
    FIRST_HIT_PAIRS,
    ids=[f"{g.spec.text()}-{n.spec.text()}" for g, n in FIRST_HIT_PAIRS],
)
def test_first_witness_matches_canonical_scan(g, n):
    w = realizable_via_cocycles(g.group, n.group)
    assert (None if w is None else (w.f.images, w.g)) == naive_first_witness(
        g.group, n.group
    )
