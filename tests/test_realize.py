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
from hopfgalois.errors import PreconditionError

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


@pytest.mark.parametrize("order", [6, 10, 14])
def test_strategy_agreement(order):
    # |Hol(D14)| = 588, so order 14 needs a raised lattice bound; D14 is
    # where the default strategy is generator pairs.
    for entry in catalog(order):
        hol = holomorph(entry.group)
        lattice = regular_subgroups(hol, lattice_bound=600, strategy="subgroup-lattice")
        pairs = regular_subgroups(hol, strategy="generator-pairs")
        assert [frozenset(r.subgroup.elements) for r in lattice] == [
            frozenset(r.subgroup.elements) for r in pairs
        ]


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


@pytest.mark.parametrize("order", [6, 10])
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


def test_threads_deterministic():
    G, N = C(6), D(6)
    w1 = realizable_via_cocycles(G, N, threads=1)
    w4 = realizable_via_cocycles(G, N, threads=4)
    assert (w1.f.images, w1.g) == (w4.f.images, w4.g)
