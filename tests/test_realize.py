import gc
import random
import weakref
from collections import Counter

import pytest

from hopfgalois import (
    Alternating4,
    Cyclic,
    Dihedral,
    DirectProduct,
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
    parse_group_spec,
    realizable_via_cocycles,
    realizable_via_search,
    regular_subgroups,
    subgroup_from_cocycle,
    transport_characteristic,
    unique_odd_part,
)
from hopfgalois import factory, perm, realize
from hopfgalois.audit import cached_realizable
from hopfgalois.errors import BoundExceededError, CountingBugError, PreconditionError
from hopfgalois.factory import is_squarefree
from hopfgalois.groups import PermGroup, derived_subgroup, generator_frame

import conftest
from conftest import (
    C,
    D,
    brute_force_bijective_crossed_homs,
    brute_force_subgroups,
    canonical_first_witness,
    catalog_cases,
    cycle_orders,
    eager_holomorph,
    first_witness,
    fresh_copy,
    hom_orbit_reps_differ,
    hom_orbits,
    least_conjugate,
    memo_of,
    pair_cases,
    per_element_semiregular_classes,
    per_x_cyclic_images,
    tally,
    unpruned_pair_search,
)

# every catalog order up to the Hol(N) search bound
CATALOG_ORDERS = [4, 12] + [n for n in range(1, 31) if is_squarefree(n)]


def trivial_hom(G, H):
    return next(f for f in homomorphisms(G, H) if len(set(f.images)) == 1)


def test_crossed_homs_trivial_f_counts():
    G = C(6)
    aut = automorphism_group(G)
    f = trivial_hom(G, aut)
    # with trivial f the bijective crossed homomorphisms are isomorphisms
    assert len(crossed_homomorphisms(f, G, G)) == 2


def test_crossed_homs_refuse_f_that_does_not_fit_g_and_n():
    # f's domain must have G's element list, and f must send G's
    # generators to automorphisms of N; otherwise the scan's answer means
    # nothing
    f = trivial_hom(C(6), automorphism_group(C(6)))
    with pytest.raises(PreconditionError, match="domain is not G"):
        crossed_homomorphisms(f, D(6), C(6))
    f = homomorphisms(C(6), automorphism_group(D(6)))[1]
    assert len(crossed_homomorphisms(f, C(6), D(6))) == 2
    with pytest.raises(PreconditionError, match="outside Aut"):
        crossed_homomorphisms(f, C(6), C(6))


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


@pytest.mark.parametrize(
    "orders,lifted", [(range(1, 67), False), (range(67, 111), True)], ids=["to-66", "lifted-67-110"]
)
def test_verify_law_matches_the_all_pairs_oracle(monkeypatch, orders, lifted):
    # verify_law reads f from g on G's frame generators; it must equal the
    # law on all |G|^2 pairs on every witness, and on mutants of each: two
    # images of g swapped, and f's image moved at each frame generator
    # and at the last element.  Orders 67-110 run with the gate lifted,
    # so Aut(N) past TABLE_LIMIT is read by rows
    if lifted:
        monkeypatch.setattr(realize, "_check_tables", conftest.lifted_check_tables)
    rng = random.Random(32)
    witnesses, mutants, bad = 0, 0, []
    for name, w in conftest.witness_cases(orders):
        witnesses += 1
        assert w.verify_law() and conftest.all_pairs_law(w), name
        cases = conftest.swap_mutants(w, rng, 1)
        moved = {*generator_frame(w.domain)[0], len(w.g) - 1}
        cases += filter(None, (conftest.off_by_one(w, x) for x in moved))
        mutants += len(cases)
        bad += [name for c in cases if conftest.law_differs(c)]
    assert (witnesses, bad) == ((141 if lifted else 168), [])
    assert mutants > 2 * witnesses


def _constant(w):
    return realize.CrossedHom(w.f, (w.n_group.identity_index,) * len(w.g), w.n_group, True)


def _translated(w):
    rows = w.n_group.rows()
    return realize.CrossedHom(w.f, tuple(rows[1][y] for y in w.g), w.n_group, True)


@pytest.mark.parametrize(
    "mutate,oracle",
    [
        # two images of g swapped that make no witness
        (lambda w: conftest.swapped(w, 1, 2), False),
        # f's image of one frame generator of G moved
        (lambda w: conftest.off_by_one(w, generator_frame(w.domain)[0][0]), False),
        # g = e is no bijection, though the all-pairs law holds for it
        (_constant, True),
        # g moved by a translation: a bijection with g(e) != e
        (_translated, False),
    ],
    ids=["swap", "f-off-by-one", "not-bijective", "g(e)-not-e"],
)
def test_verify_law_refuses_what_is_no_witness(mutate, oracle):
    w = realizable_via_cocycles(C(30), D(30))
    c = mutate(w)
    assert w.verify_law() and not c.verify_law()
    assert conftest.all_pairs_law(c) is oracle
    if c.f is w.f:  # no f at all makes this g a crossed homomorphism
        assert realize.crossed_twist(c.domain, c.n_group, c.g) is None


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
    # the brute-force subgroup walk, capped at |N|, is the reference; it
    # has no order bound, and |Hol(D14)| = 588; order 12 holds A4, whose
    # generating pairs all have element orders multiplying to less than 12
    for entry in catalog(order):
        hol = holomorph(entry.group)
        subs = (
            hol.group.subgroup_from_indices(s)
            for s in brute_force_subgroups(hol.group, order)
            if len(s) == order
        )
        lattice = [frozenset(S.elements) for S in subs if is_regular(S)]
        found = [frozenset(r.subgroup.elements) for r in regular_subgroups(hol)]
        assert found == lattice, entry.spec.text()


@pytest.mark.parametrize("order", CATALOG_ORDERS)
def test_catalog_classes_are_two_generated(order):
    # the generator-pair search is complete only under this condition
    for entry in catalog(order):
        assert len(entry.group.minimal_generating_set()) <= 2, entry.spec.text()


@pytest.mark.parametrize("order", CATALOG_ORDERS)
def test_pool_classes_are_conjugacy_classes(order):
    # on permutations: the classes partition the non-identity semiregular
    # elements, each is the orbit of its first member under conjugation
    # by the generators of Hol(N); on codes: each class is led by its
    # least code, and the classes come by descending order, then that code
    for entry in catalog(order):
        hol = holomorph(entry.group)
        size = len(hol.aut)
        gens = [(h, perm.inverse(h)) for h in hol.group.generators]
        found = realize._semiregular_classes(hol)[0]
        assert all(codes[0] == min(codes) for _, codes in found), entry.spec.text()
        keys = [(-k, codes[0]) for k, codes in found]
        assert keys == sorted(keys), entry.spec.text()
        classes = [
            (k, [perm.compose(hol.lam[c // size], hol.iota[c % size]) for c in codes])
            for k, codes in found
        ]
        pool = [p for p in hol.group.elements if perm.semiregular_order(p) > 1]
        assert sorted(p for _, ps in classes for p in ps) == pool, entry.spec.text()
        for k, ps in classes:
            assert {perm.semiregular_order(p) for p in ps} == {k}, entry.spec.text()
            orbit = {ps[0]}
            frontier = [ps[0]]
            while frontier:
                p = frontier.pop()
                for h, h_inv in gens:
                    q = perm.compose(perm.compose(h, p), h_inv)
                    if q not in orbit:
                        orbit.add(q)
                        frontier.append(q)
            assert orbit == set(ps), entry.spec.text()


@pytest.mark.parametrize("order", CATALOG_ORDERS)
def test_search_orbits_are_conjugacy_orbits(order):
    # on permutations: each orbit the search returns is closed under
    # conjugation by every generator of Hol(N), the orbits partition the
    # records, and tagging one subgroup per orbit agrees with tagging each
    entries = catalog(order)
    for entry in entries:
        hol = holomorph(entry.group)
        records = regular_subgroups(hol)
        orbits = [set(orbit) for orbit in realize._pair_search(hol)]
        assert sum(map(len, orbits)) == len(records), entry.spec.text()
        assert set().union(*orbits) == {frozenset(r.subgroup.elements) for r in records}
        for h in hol.group.generators:
            h_inv = perm.inverse(h)
            for orbit in orbits:
                for S in orbit:
                    moved = frozenset(perm.compose(perm.compose(h, p), h_inv) for p in S)
                    assert moved in orbit, entry.spec.text()
        for r in records:
            assert r.iso_index == class_index(r.subgroup, entries), entry.spec.text()


# the catalog orders, and groups built from specs, some not from the catalog
SEARCH_CASES = CATALOG_ORDERS + ["A4", "C2xC2", "C2xC6", "Hol(C3)", "C1"]


def _search_groups(case):
    if isinstance(case, int):
        return [(e.spec.text(), e.group) for e in catalog(case)]
    return [(case, build(parse_group_spec(case)))]


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_semiregular_classes_match_per_element_oracle(case):
    # the classes, tables and pool equal those found by listing Hol(N) and
    # testing every element for semiregularity, and each code's permutation
    # equals the one composed by a generator expression
    for name, N in _search_groups(case):
        hol = holomorph(N)
        *found, element = realize._semiregular_classes(hol)
        *expected, oracle_element = per_element_semiregular_classes(hol)
        assert found == expected, name
        codes = range(len(N) * len(hol.aut))
        assert list(map(element, codes)) == list(map(oracle_element, codes)), name


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_search_leaves_the_permutations_unbuilt(case):
    # a fresh copy of N keys a fresh holomorph; the search reads only its
    # coordinates, and the permutations built on a later read are the
    # eager build's
    for name, N in _search_groups(case):
        hol = holomorph(PermGroup(N.degree, N.elements, generators=N.generators, label=N.label))
        regular_subgroups(hol)
        assert "group" not in vars(hol) and "tags" not in vars(hol), name
        group, _ = eager_holomorph(hol)
        built = (hol.group.degree, hol.group.elements, hol.group.generators, hol.group.label)
        assert built == (group.degree, group.elements, group.generators, group.label), name


@pytest.mark.parametrize("case", [c for c in SEARCH_CASES if not isinstance(c, int) or c <= 22])
def test_pair_search_matches_unpruned_oracle(case):
    # the fixed-point mark and the orbit skip drop only codes and pairs
    # that cannot give a new regular subgroup: the same orbits, in the
    # same order, as the search that walks every code and closes every pair
    for name, N in _search_groups(case):
        hol = holomorph(N)
        assert realize._pair_search(hol) == unpruned_pair_search(hol), name


def _leave_the_pool(hol):
    # a table onto elements that fix N's identity, none of them semiregular
    size = len(hol.aut)
    e_t = hol.n_group.identity_index
    return [[e_t * size + c % size for c in range(len(hol.n_group) * size)]]


def _collapse_the_codes(hol):
    # every code goes to one pool element: no bijection, so the classes
    # it would give are no conjugacy classes
    size = len(hol.aut)
    t, a = next(tag for p, tag in eager_holomorph(hol)[1].items() if perm.semiregular_order(p) > 1)
    return [[t * size + a] * (len(hol.n_group) * size)]


def _repeat_a_t_part(hol):
    # a bijection that swaps the translation lam[t1] with an involution
    # (t2, a) outside the translations, t1 != t2: the pool stays the
    # same, but the translation subgroup goes to a set holding t-part t2
    # twice
    N, size = hol.n_group, len(hol.aut)
    e_a = hol.aut.identity_index
    t2, a = next(
        tag for p, tag in eager_holomorph(hol)[1].items()
        if perm.semiregular_order(p) == 2 and tag[1] != e_a
    )
    t1 = next(t for t in range(len(N)) if N.order_of(t) == 2 and t != t2)
    table = list(range(len(N) * size))
    table[t1 * size + e_a], table[t2 * size + a] = t2 * size + a, t1 * size + e_a
    return [table]


def _shift_the_t_parts(hol):
    # a bijection (t, a) -> (t + 1, a) that is no conjugation: its orbits
    # mix semiregular elements with ones that fix a point
    m, size = len(hol.n_group), len(hol.aut)
    return [[(c // size + 1) % m * size + c % size for c in range(m * size)]]


@pytest.mark.parametrize(
    "broken, message",
    [
        (_leave_the_pool, "semiregular"),
        (_repeat_a_t_part, "t-part"),
        (_collapse_the_codes, "not a bijection, so semiregular"),
        (_shift_the_t_parts, "semiregular class holds an element fixing"),
    ],
    ids=["pool", "t-parts", "no-bijection", "fixed-point"],
)
def test_broken_conjugation_is_a_bug(monkeypatch, broken, message):
    conjugators = realize._conjugators
    monkeypatch.setattr(
        realize, "_conjugators", lambda hol: conjugators(hol) + broken(hol)
    )
    with pytest.raises(CountingBugError, match=message):
        realize._pair_search(holomorph(D(6)))


def test_regular_subgroups_is_memoized_per_holomorph():
    hol = holomorph(C(6))
    assert regular_subgroups(hol) is regular_subgroups(hol)


def test_regular_subgroups_order_bound(monkeypatch):
    c31 = build(Cyclic(31))
    with pytest.raises(BoundExceededError):
        regular_subgroups(holomorph(c31))

    def boom(N):
        raise AssertionError("Hol(N) built above the search bound")

    # the search checks the bound before it builds Hol(N)
    monkeypatch.setattr(realize, "holomorph", boom)
    with pytest.raises(BoundExceededError):
        realize.realizable_via_search(c31, c31)


def test_cocycle_engine_and_holomorph_refuse_before_listing_aut(monkeypatch):
    def boom(N):
        raise AssertionError("Aut(N) listed past a bound")

    monkeypatch.setattr(factory, "automorphism_group", boom)
    monkeypatch.setattr(realize, "automorphism_group", boom)
    monkeypatch.setattr(factory, "_aut_chain", boom)
    # |Aut D102| = 1632 is past TABLE_LIMIT, and Hol(D102) past SIZE_LIMIT:
    # each is refused on |Aut N| alone, read off the closed form with no
    # chain
    N = factory._semidirect_pair(51, 2, 50, None)  # D102, with no memo yet
    for engine in (realizable_via_cocycles, count_crossed_pairs):
        with pytest.raises(BoundExceededError, match="^no table above 1200 elements$"):
            engine(C(102), N)
    with pytest.raises(BoundExceededError, match="exceed the size bound"):
        factory.holomorph(N)
    # |N| = 1201 is refused before Aut(N) is even counted
    for engine in (realizable_via_cocycles, count_crossed_pairs):
        with pytest.raises(BoundExceededError, match="^no table above 1200 elements$"):
            engine(C(1201), C(1201))


def test_lifting_the_gate_alone_answers_above_the_table_limit(monkeypatch):
    # |Aut D102| = 1632 is past TABLE_LIMIT; with the gate lifted and
    # nothing else changed, the engine reads Aut(D102) by rows and answers
    # for every G of order 102, with e(G, D102) = 4 for each (T = {3, 17})
    monkeypatch.setattr(realize, "_check_tables", conftest.lifted_check_tables)
    N = fresh_copy(D(102))
    for e in catalog(102):
        G = fresh_copy(e.group)
        witness = realizable_via_cocycles(G, N)
        assert witness.bijective and witness.verify_law() and witness.f.verify(), e.spec
        assert count_crossed_pairs(G, N) == 4 * 1632, e.spec


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


@pytest.mark.parametrize("order", CATALOG_ORDERS)
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
        orbits = list(hom_orbits(g.group, aut))
        assert sum(len(o) for _, o in orbits) == len(homs)
        positions = [homs.index(f) for f, _ in orbits]
        assert positions == sorted(positions) and positions[:1] == [0]


@pytest.mark.parametrize(
    "order", [4, 12] + [n for n in range(1, 43) if is_squarefree(n)]
)
def test_hom_orbit_reps_match_oracle(order):
    # the orbit-by-orbit search never builds Hom; the oracle builds all of it.
    # Each f carries its centralizer: |Aut N| / size automorphisms, each
    # commuting with every image of f
    assert tally(pair_cases([order]), hom_orbit_reps_differ)[1] == []


@pytest.mark.parametrize(
    "spec",
    [
        Alternating4(),
        DirectProduct(DirectProduct(Cyclic(2), Cyclic(2)), Cyclic(2)),
        Cyclic(1),
    ],
    ids=["A4", "C2xC2xC2", "C1"],
)
def test_hom_orbit_reps_are_least_conjugates(spec):
    G = build(spec)
    assert not hom_orbit_reps_differ(G, G)


def test_hom_orbit_reps_out_of_order_is_a_bug(monkeypatch):
    # a walk that yields each representative twice breaks the increasing
    # order the greedy frame guarantees
    walk = realize._orbit_walk

    def twice(*args, **kwargs):
        for item in walk(*args, **kwargs):
            yield item
            yield item

    monkeypatch.setattr(realize, "_orbit_walk", twice)
    with pytest.raises(CountingBugError, match="not strictly increasing"):
        list(realize._hom_orbit_reps(C(6), automorphism_group(D(6))))


def test_verdict_draws_hom_representatives_lazily(monkeypatch):
    # (C6, D6): the trivial f has no witness and the second f holds the
    # first one, so the verdict draws two of the three representatives
    G, N = C(6), D(6)
    aut = automorphism_group(N)
    assert len(list(realize._hom_orbit_reps(G, aut))) == 3
    walk = realize._orbit_walk
    drawn = []

    def counted(domain, H, *args, **kwargs):
        for item in walk(domain, H, *args, **kwargs):
            if H is aut:  # the conjugation walk over Hom(G, Aut N)
                drawn.append(item[0])
            yield item

    monkeypatch.setattr(realize, "_orbit_walk", counted)
    w = realizable_via_cocycles(G, N)
    assert w is not None and len(drawn) == 2 and w.f.images == drawn[1]


def _hom_with_big_orbit(G, N):
    aut = automorphism_group(N)
    homs = homomorphisms(G, aut)
    f = next(f for f, o in hom_orbits(G, aut) if len(o) > 1)
    return aut, homs, f


def test_orbit_leaving_hom_is_a_bug(monkeypatch):
    G, N = C(6), D(6)
    aut, homs, f = _hom_with_big_orbit(G, N)
    cut = [h for h in homs if h != f]  # an orbit of a later f now leaves Hom
    monkeypatch.setattr(conftest, "homomorphisms", lambda G, H: cut)
    with pytest.raises(CountingBugError):
        list(hom_orbits(G, aut))


def test_orbit_sizes_not_summing_is_a_bug(monkeypatch):
    G, N = C(6), D(6)
    aut, homs, f = _hom_with_big_orbit(G, N)
    monkeypatch.setattr(conftest, "homomorphisms", lambda G, H: homs + [f])
    with pytest.raises(CountingBugError):
        list(hom_orbits(G, aut))


def _drop_centralizer_element(orbits, S):
    # the first centralizer with more than one element loses its last one
    i = next(i for i, (_, C) in enumerate(orbits) if len(C) > 1)
    y, C = orbits[i]
    return orbits[:i] + [(y, C[:-1])] + orbits[i + 1 :]


def _swap_centralizer_element(orbits, S):
    # the first proper centralizer trades its last element for one outside
    # it: the orbit sizes still add up, but it no longer fixes its image.
    # Orbits of a trivial S have no proper centralizer and stay as they are
    i = next((i for i, (_, C) in enumerate(orbits) if len(C) < len(S)), None)
    if i is None:
        return orbits
    y, C = orbits[i]
    outside = next(b for b in S if b not in C)
    return orbits[:i] + [(y, C[:-1] + (outside,))] + orbits[i + 1 :]


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_centralizer_element,
        _swap_centralizer_element,
        lambda orbits, S: orbits[:-1],
    ],
    ids=["drop-centralizer", "swap-centralizer", "drop-orbit"],
)
@pytest.mark.parametrize("engine", [count_crossed_pairs, realizable_via_cocycles])
def test_broken_orbit_helper_is_a_bug(monkeypatch, mutate, engine):
    # a fresh D6 has a fresh Aut(D6), whose orbit tables are all filled
    # by the mutant; the cached one's may be filled already
    helper = realize._orbits

    def mutated(S, cands, act):
        return mutate(helper(S, cands, act), S)

    monkeypatch.setattr(realize, "_orbits", mutated)
    with pytest.raises(CountingBugError):
        engine(C(6), fresh_copy(D(6)))


@pytest.mark.parametrize(
    "engine",
    [
        lambda G, N: list(realize._hom_orbit_reps(G, automorphism_group(N))),
        count_crossed_pairs,
        realizable_via_cocycles,
    ],
    ids=["hom-walk", "count", "verdict"],
)
def test_stabilizer_moving_a_chosen_image_is_a_bug(monkeypatch, engine):
    # (C6, D6): C6's greedy frame has one generator, so the Hom(C6, Aut D6)
    # walk's one level is its last; there the first proper stabilizer
    # trades its last element for one outside it, so the orbit sizes still
    # add up and only the final check sees it.  The crossed-hom walks'
    # candidates leave out the identity and are never swapped.  D6 is a
    # fresh copy, so no orbit table is filled before the mutant runs
    G, N = C(6), fresh_copy(D(6))
    aut = automorphism_group(N)
    gens = realize.greedy_frame(G)[0]
    assert len(gens) == 1
    last = realize.hom_candidates(G, aut, gens)[-1]
    helper = realize._orbits

    def mutated(S, cands, act):
        orbits = helper(S, cands, act)
        return _swap_centralizer_element(orbits, S) if list(cands) == last else orbits

    monkeypatch.setattr(realize, "_orbits", mutated)
    with pytest.raises(CountingBugError, match="a stabilizer moves a chosen image"):
        engine(G, N)


def _drop_from_centralizer(reps, aut):
    # the first centralizer with more than one element loses its last one
    i = next(i for i, (_, _, C) in enumerate(reps) if len(C) > 1)
    f, size, C = reps[i]
    return reps[:i] + [(f, size, C[:-1])] + reps[i + 1 :]


def _swap_into_centralizer(reps, aut):
    # the first proper centralizer trades its last element for one that
    # does not commute with f: its size still matches the orbit
    i = next(i for i, (_, _, C) in enumerate(reps) if len(C) < len(aut))
    f, size, C = reps[i]
    outside = next(b for b in range(len(aut)) if b not in C)
    return reps[:i] + [(f, size, C[:-1] + (outside,))] + reps[i + 1 :]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_from_centralizer, "a centralizer of 5 for an orbit of 1"),
        (_swap_into_centralizer, "does not commute with f"),
        (None, "orbits do not cover"),
    ],
    ids=["drop-centralizer", "swap-centralizer", "drop-orbit"],
)
@pytest.mark.parametrize("engine", [count_crossed_pairs, realizable_via_cocycles])
def test_broken_centralizer_walk_is_a_bug(monkeypatch, mutate, message, engine):
    # (C6, D6): the trivial f has no witness and centralizer Aut(D6); the
    # next f has centralizer {0, 1} and the first witness.  D6 is a fresh
    # copy, so the centralizer walk's orbit tables are filled by the mutant
    G, N = C(6), fresh_copy(D(6))
    aut = automorphism_group(N)
    reps = list(realize._hom_orbit_reps(G, aut))
    if mutate is None:
        # the centralizer walk loses the last orbit of every level
        helper = realize._orbits
        monkeypatch.setattr(realize, "_orbits", lambda S, cands, act: helper(S, cands, act)[:-1])
    else:
        reps = mutate(reps, aut)
    monkeypatch.setattr(realize, "_hom_orbit_reps", lambda G, aut: reps)
    with pytest.raises(CountingBugError, match=message):
        engine(G, N)


def test_nontrivial_final_stabilizer_is_a_bug():
    # a repeated identity passes every orbit check but fixes every g
    G, N = C(6), D(6)
    aut = automorphism_group(N)
    f, _, centralizer = list(realize._hom_orbit_reps(G, aut))[1]
    frame = realize.generator_frame(G)
    assert len(list(realize._crossed_hom_reps(f, centralizer, N, frame))) == 1
    twice = [aut.identity_index] * 2
    with pytest.raises(CountingBugError, match="fix a bijective crossed homomorphism"):
        list(realize._crossed_hom_reps(f, twice, N, frame))


def test_wrong_stabilizer_size_is_a_bug():
    # the least-conjugate oracle in conftest raises when told a stabilizer
    # order that no coset of the centralizer reaches
    N = D(6)
    aut = automorphism_group(N)
    f, size, centralizer = next(
        rep for rep in realize._hom_orbit_reps(C(6), aut) if rep[1] > 1
    )
    atab = aut.table()
    inv = [aut.inv(b) for b in range(len(aut))]
    stab = len(aut) // size
    least, least_centralizer = least_conjugate(atab, inv, f.images, stab)
    assert least == f.images and sorted(least_centralizer) == sorted(centralizer)
    with pytest.raises(CountingBugError):
        least_conjugate(atab, inv, f.images, stab + 1)


def test_count_crossed_pairs_checks_orders_first(monkeypatch):
    def no_aut(N):
        raise AssertionError("Aut(N) built for a pair of unequal orders")

    monkeypatch.setattr(realize, "automorphism_group", no_aut)
    with pytest.raises(PreconditionError, match="counting crossed pairs needs"):
        count_crossed_pairs(C(6), D(10))


def test_dropping_the_last_pair_orbit_breaks_the_parity(monkeypatch):
    # for a non-abelian N the opposite map pairs the orbits of crossed
    # pairs off, so a scan that loses one gives an odd count: 4 orbits of
    # (C30, D30) become 3.  For an abelian N the check is not made, and
    # (D30, C30) has 15 orbits
    G, N = C(30), D(30)
    assert len(derived_subgroup(G)) == 1 < len(derived_subgroup(N))
    assert count_crossed_pairs(N, G) == 15 * len(automorphism_group(G))
    assert count_crossed_pairs(G, N) == 4 * len(automorphism_group(N))
    full = realize._pair_orbit_reps
    monkeypatch.setattr(realize, "_pair_orbit_reps", lambda G, aut, N: list(full(G, aut, N))[:-1])
    with pytest.raises(CountingBugError, match="an odd number of orbits, 3"):
        count_crossed_pairs(G, N)


def test_dropping_a_pair_orbit_breaks_divisibility_by_aut_g(monkeypatch):
    # Aut(G) acts freely on the bijective pairs, so |Aut G| divides their
    # number.  (D30, C30) has an abelian N, so the parity check is silent,
    # and 15 orbits of |Aut C30| = 8 give 120 pairs; one orbit fewer gives
    # 112, which |Aut D30| = 120 does not divide
    G, N = D(30), C(30)
    assert count_crossed_pairs(G, N) == 120 == factory.automorphism_order(G)
    full = realize._pair_orbit_reps
    monkeypatch.setattr(realize, "_pair_orbit_reps", lambda G, aut, N: list(full(G, aut, N))[:-1])
    with pytest.raises(CountingBugError, match=r"^112 pairs, not a multiple of \|Aut G\| = 120$"):
        count_crossed_pairs(G, N)


# The counts the benchmark's cocycle-counts workload leaves out for cost:
# the D66 row and COUNT_LEFT_OUT in perfbench/workloads.py.
LEFT_OUT_COUNTS = {
    ("D66", "SD(33,2;10)"): 1320,
    ("SD(33,2;10)", "SD(33,2;10)"): 440,
    ("D66", "SD(33,2;23)"): 1320,
    ("SD(7,6;3)", "D42"): 7056,
    ("SD(14,3;9)", "D42"): 7056,
    ("D42", "D42"): 1008,
    ("SD(21,2;13)", "D42"): 1008,
    ("SD(7,6;3)", "SD(14,3;9)"): 1176,
    ("SD(7,6;3)", "SD(21,2;13)"): 1176,
    ("C66", "D66"): 2640,
    ("SD(33,2;10)", "D66"): 2640,
    ("SD(33,2;23)", "D66"): 2640,
    ("D66", "D66"): 2640,
}


@pytest.mark.parametrize(
    "g_text, n_text", LEFT_OUT_COUNTS, ids=[f"{g}-{n}" for g, n in LEFT_OUT_COUNTS]
)
def test_left_out_counts(g_text, n_text):
    groups = {e.spec.text(): e.group for k in (42, 66) for e in catalog(k)}
    G, N = groups[g_text], groups[n_text]
    pairs = count_crossed_pairs(G, N)
    assert pairs == LEFT_OUT_COUNTS[g_text, n_text]
    # each regular subgroup comes from |Aut G| pairs, each structure from |Aut N|
    assert pairs % len(automorphism_group(G)) == 0
    assert pairs % len(automorphism_group(N)) == 0


FIRST_HIT_PAIRS = [
    p for order in (6, 10, 12, 30) for p in catalog_pairs(order)
] + catalog_pairs(42, {"SD(14,3;9)", "SD(7,6;3)"})


@pytest.mark.parametrize(
    "g,n",
    FIRST_HIT_PAIRS,
    ids=[f"{g.spec.text()}-{n.spec.text()}" for g, n in FIRST_HIT_PAIRS],
)
def test_first_witness_matches_canonical_scan(g, n):
    assert first_witness(g.group, n.group) == canonical_first_witness(g.group, n.group)


def test_cyclic_candidates_are_kept_per_n():
    # every generator's candidates, read through N's memo, equal a direct
    # scan for each f the engine walks on every catalog pair up to order
    # 66, and so does every entry the engines left in the memo; a repeated
    # key gives back the same list
    for order in [4, 12] + [n for n in range(1, 67) if is_squarefree(n)]:
        for g, n in catalog_pairs(order):
            G, N = g.group, n.group
            aut = automorphism_group(N)
            for f, _, _ in realize._hom_orbit_reps(G, aut):
                for a in realize.generator_frame(G)[0]:
                    key = (f.image_perm(a), G.order_of(a))
                    got = realize._cyclic_candidates(N, *key)
                    assert got == realize._cyclic_consistent_images(N, *key)
                    assert realize._cyclic_candidates(N, *key) is got
        for n in catalog(order):
            N = n.group
            for key, got in memo_of(N, realize._cyclic_candidates).items():
                assert got == realize._cyclic_consistent_images(N, *key)


def test_identity_twist_candidates_are_the_elements_of_order_r():
    # f(a) = 1 makes the walk from x run through x's powers, so the
    # candidates for ord a = r are the elements of order r: for every
    # catalog N up to order 66 and every element order r of N, the list
    # equals the walk from every x and the elements whose cycle lengths
    # give order r
    checked = 0
    for name, N in catalog_cases(range(1, 67)):
        identity, orders = perm.identity(len(N)), cycle_orders(N)
        for r in sorted(set(orders)):
            got = realize._cyclic_consistent_images(N, identity, r)
            assert got == per_x_cyclic_images(N, identity, r), (name, r)
            assert got == [x for x, k in enumerate(orders) if k == r], (name, r)
            checked += 1
    assert checked > 250


def test_orbit_tables_give_cold_answers():
    # each catalog N's Aut(N) keeps the orbit tables of every G swept
    # against it; after the full sweep, every pair's count and first
    # witness equal those on a fresh copy of N, whose Aut(N) has none
    for order in [4, 12] + [n for n in range(1, 43) if is_squarefree(n)]:
        entries = catalog(order)
        for n in entries:
            N = n.group
            for g in entries:
                count_crossed_pairs(g.group, N)
            for g in entries:
                G, cold = g.group, fresh_copy(N)
                warm = count_crossed_pairs(G, N), first_witness(G, N)
                assert warm == (count_crossed_pairs(G, cold), first_witness(G, cold))


def test_repeated_sweep_splits_no_orbits(monkeypatch):
    # a second sweep of every G of order 30 against a fresh N reads each
    # orbit split from Aut(N)'s tables
    entries = catalog(30)
    for n in entries:
        N = fresh_copy(n.group)
        first = [(count_crossed_pairs(g.group, N), first_witness(g.group, N)) for g in entries]
        assert memo_of(automorphism_group(N), realize._orbit_split)
        calls = []
        helper = realize._orbits
        monkeypatch.setattr(realize, "_orbits", lambda *args: calls.append(args) or helper(*args))
        again = [(count_crossed_pairs(g.group, N), first_witness(g.group, N)) for g in entries]
        monkeypatch.undo()
        assert (again, calls) == (first, [])


def test_orbit_tables_key_on_action_and_candidates():
    # Aut(D6)'s subgroup {0, 3} splits all six indices one way by
    # conjugation on Aut(D6) and another by evaluation on D6, and the
    # identity alone a third way: walks of C6 over each, one after the
    # other on one Aut(D6), yield what each yields on a fresh Aut(D6)
    G, N = C(6), D(6)
    frame = realize.greedy_frame(G)
    walks = [
        (realize._conjugation, list(range(6))),
        (realize._evaluation, list(range(6))),
        (realize._conjugation, [0]),
    ]

    def walk(aut, action, cands):
        H = aut if action is realize._conjugation else N
        return list(realize._orbit_walk(G, H, frame, [cands], (0, 3), aut, action))

    shared = automorphism_group(fresh_copy(N))
    results = []
    for action, cands in walks:
        got = walk(shared, action, cands)
        assert got == walk(automorphism_group(fresh_copy(N)), action, cands)
        results.append(got)
    assert len({repr(r) for r in results}) == 3


@pytest.mark.parametrize("spec", ["C6", "D6"])
def test_one_element_acting_group_makes_no_split(spec):
    # the identity alone acting: every candidate is its own orbit, with
    # the identity as its stabilizer, so both walks yield every
    # extend_images solution, in order, and Aut(N) keeps no orbit split
    # for them.  D6's frames have two generators, so the earlier levels
    # split this way too
    G, N = build(parse_group_spec(spec)), fresh_copy(D(6))
    aut = automorphism_group(N)
    e = (aut.identity_index,)
    frame = realize.generator_frame(G)
    for f in homomorphisms(G, aut):
        twist = [aut.elements[b] for b in f.images]
        cands = [realize._cyclic_candidates(N, twist[a], G.order_of(a)) for a in frame[0]]
        walk = realize._orbit_walk(
            G, N, frame, cands, e, aut, realize._evaluation, twist, injective=True
        )
        scan = realize.extend_images(G, N, frame, cands, twist=twist, injective=True)
        assert list(walk) == [(m, e) for m in scan]
    frame = realize.greedy_frame(G)
    cands = realize.hom_candidates(G, aut, frame[0])
    walk = realize._orbit_walk(G, aut, frame, cands, [aut.identity_index], aut, realize._conjugation)
    scan = list(realize.extend_images(G, aut, frame, cands))
    assert len(frame[0]) == (1 if spec == "C6" else 2) and scan
    assert list(walk) == [(m, e) for m in scan]
    assert memo_of(aut, realize._orbit_split) == {}


def test_one_element_acting_set_must_be_the_identity():
    # the automorphism 1 of D6 commutes with the trivial f, but alone it
    # is no group: the walk refuses it before splitting anything
    G, N = C(6), fresh_copy(D(6))
    aut = automorphism_group(N)
    f = next(f for f in homomorphisms(G, aut) if set(f.images) == {aut.identity_index})
    frame = realize.generator_frame(G)
    with pytest.raises(CountingBugError, match="one-element acting group holds 1"):
        list(realize._crossed_hom_reps(f, (1,), N, frame))
    assert memo_of(aut, realize._orbit_split) == {}


def test_empty_stabilizer_is_a_bug():
    # {1} is no group: the automorphism 1 of D6 fixes the element 1 but
    # moves 2, so the representative 2 has an empty stabilizer in it, and
    # its orbit size |T| / 0 is undefined
    aut = automorphism_group(D(6))
    assert aut.elements[1][1] == 1 and aut.elements[1][2] != 2
    with pytest.raises(CountingBugError, match="empty stabilizer"):
        realize._orbit_split(aut, realize._evaluation, (1,), (1, 2, 3))


def test_derived_state_is_freed_with_its_groups():
    # both engines and the audits' memo on fresh copies of G and N: what
    # they derive, Aut(N) and Hol(N) among it, hangs on those groups, so
    # nothing holds them once the test lets them go
    G, N = fresh_copy(C(6)), fresh_copy(D(6))
    assert count_crossed_pairs(G, N) == 12
    assert len(regular_subgroups(holomorph(N))) == 8
    assert cached_realizable(G, N) is not None
    refs = [weakref.ref(x) for x in (G, N, automorphism_group(N), holomorph(N))]
    del G, N
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_no_group_keeps_lazy_state_of_its_own():
    # what a group derives lives in its ``_memo`` alone, so an attribute
    # set after construction, a lazy slot or a listing written into
    # Hol(N), is outside the one memo and fails here; ``pair`` is a
    # constructor field
    G, N = fresh_copy(C(6)), fresh_copy(D(6))
    assert count_crossed_pairs(G, N) == 12
    hol = holomorph(N)
    records = regular_subgroups(hol)
    assert len(hol.group) == 36
    groups = [G, N, automorphism_group(N), hol.group, *(r.subgroup for r in records)]
    allowed = {"degree", "elements", "generators", "label", "_index", "_base_points", "pair", "_memo"}
    assert [name for H in groups for name in vars(H) if name not in allowed] == []
    assert not {"group", "tags"} & set(vars(hol))
