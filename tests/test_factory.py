from types import SimpleNamespace

import pytest

from hopfgalois import (
    Alternating4,
    Cyclic,
    Dihedral,
    DirectProduct,
    Holomorph,
    SemidirectCC,
    SemidirectZ2,
    are_isomorphic,
    automorphism_group,
    build,
    catalog,
    class_index,
    decompose_burnside,
    holomorph,
    is_cyclic,
    is_regular,
    realizable_via_cocycles,
    shape_check_semidirect_z2,
    subgroup_from_cocycle,
    z2_twists,
)
from hopfgalois import factory, parse_group_spec, perm
from hopfgalois.errors import (
    BoundExceededError,
    CountingBugError,
    PreconditionError,
    SpecSemanticError,
    UnsupportedOrderError,
)
from hopfgalois.factory import HolomorphGroup, _holder_key, _semidirect_pair, _twists, is_squarefree
from hopfgalois.groups import PermGroup, closure, left_translation, unique_odd_part

from conftest import (
    C,
    D,
    aut_differs,
    brute_force_automorphisms,
    catalog_differs,
    closure_pair,
    decompose_cases,
    decompose_differs,
    lattice_decompose_burnside,
    memo_of,
    tally,
)


def commutative(G):
    n, rows = len(G), G.rows()
    return all(rows[a][b] == rows[b][a] for a in range(n) for b in range(n))


def test_build_cyclic():
    G = C(6)
    assert len(G) == 6 and len(G.generators) == 1


def test_build_semidirect_cc():
    G = build(SemidirectCC(7, 3, 2))
    assert len(G) == 21 and not commutative(G)


def test_build_semidirect_z2():
    G = build(SemidirectZ2(15, 4))
    assert len(G) == 30
    assert not is_cyclic(G)
    assert are_isomorphic(G, D(30)) is None


def test_build_a4():
    G = build(Alternating4())
    assert len(G) == 12 and not commutative(G)


def test_build_direct_product():
    G = build(DirectProduct(Cyclic(2), Cyclic(6)))
    assert len(G) == 12 and commutative(G) and not is_cyclic(G)


def test_build_regularity():
    for spec in (Cyclic(6), Dihedral(10), SemidirectCC(7, 3, 2), SemidirectZ2(15, 4)):
        assert is_regular(build(spec))


def test_dihedral_equals_inversion_twist():
    assert build(Dihedral(30)).elements == build(SemidirectZ2(15, 14)).elements


def test_invalid_twists():
    with pytest.raises(SpecSemanticError):
        build(SemidirectCC(7, 3, 3))  # 3^3 = 27 != 1 mod 7
    with pytest.raises(SpecSemanticError):
        build(SemidirectCC(6, 2, 5))  # gcd(6, 2) != 1
    with pytest.raises(SpecSemanticError):
        build(SemidirectZ2(15, 2))  # 2^2 != 1 mod 15
    with pytest.raises(SpecSemanticError):
        build(SemidirectZ2(15, 5))  # not a unit


def test_automorphism_orders():
    assert len(automorphism_group(C(15))) == 8
    assert len(automorphism_group(D(6))) == 6
    assert len(automorphism_group(C(2))) == 1


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(5),
        Cyclic(6),
        Cyclic(8),
        SemidirectCC(3, 2, 2),
        DirectProduct(Cyclic(2), Cyclic(2)),
        Dihedral(8),
        DirectProduct(Cyclic(2), Cyclic(4)),
    ],
)
def test_automorphisms_against_brute_force(spec):
    N = build(spec)
    fast = sorted(automorphism_group(N).elements)
    assert fast == brute_force_automorphisms(N)


def test_automorphism_group_matches_isomorphisms():
    # the chain's t_c o s against the full isomorphisms(N, N) scan: every
    # catalog N at orders up to 110 (4 and 12 included) and five others
    orders = [n for n in range(1, 111) if n in (4, 12) or is_squarefree(n)]
    groups = [e.group for n in orders for e in catalog(n)]
    groups += [build(parse_group_spec(t)) for t in ("C2xC2xC2", "C2xC4", "D8", "A4", "D30xC7")]
    assert [N for N in groups if aut_differs(N)] == []


@pytest.mark.parametrize(
    "text", ["D102", "SD(55,2;21)", "D30xC7", "C2xC2xC2", "C2xC2xC2xC3", "C2xC2xC2xC11"]
)
def test_aut_chain_scans_once_per_candidate_and_doubles_the_orbit(monkeypatch, text):
    # one scan fixes a, one goes to each candidate the walk has not reached,
    # and as the stabilizer walks with the movers, each mover at least
    # doubles the orbit: it grows from [H : S] to [H' : S] for H < H'
    base = build(parse_group_spec(text))
    N = PermGroup(base.degree, base.elements)  # an unshared copy has no chain yet
    scanned = []
    real = factory.extend_images

    def counting(G, H, frame, cands, **kwargs):
        scanned.append(cands[0])
        return real(G, H, frame, cands, **kwargs)

    monkeypatch.setattr(factory, "extend_images", counting)
    transversal, stabilizer = factory._aut_chain(N)
    a = next(iter(transversal))
    assert scanned[0] == [a] and all(s[a] == a for s in stabilizer)
    images = [c for (c,) in scanned[1:]]
    assert len(set(images)) == len(images) and a not in images
    same_order = {c for c in range(len(N)) if N.order_of(c) == N.order_of(a)}
    assert same_order - set(transversal) <= set(images)
    movers = [c for c in images if c in transversal]
    assert 2 ** len(movers) <= len(transversal)
    assert len(transversal) * len(stabilizer) == len(automorphism_group(N))


def test_automorphism_group_checks_the_transversal(monkeypatch):
    N = PermGroup(D(10).degree, D(10).elements)
    transversal, stabilizer = factory._aut_chain(N)
    (c1, t1), (c2, t2) = list(transversal.items())[1:3]
    swapped = {**transversal, c1: t2, c2: t1}
    monkeypatch.setattr(factory, "_aut_chain", lambda G: (swapped, stabilizer))
    with pytest.raises(CountingBugError, match="misses its orbit point"):
        automorphism_group(N)
    repeated = stabilizer + stabilizer[:1]
    monkeypatch.setattr(factory, "_aut_chain", lambda G: (transversal, repeated))
    with pytest.raises(PreconditionError, match="not distinct"):
        automorphism_group(PermGroup(N.degree, N.elements))


def test_automorphism_group_generator_bound():
    c2_2 = DirectProduct(Cyclic(2), Cyclic(2))
    N = build(DirectProduct(c2_2, c2_2))
    with pytest.raises(BoundExceededError):  # needs four generators
        automorphism_group(N)


def test_holomorph_orders():
    assert len(holomorph(C(3)).group) == 6
    hol6 = holomorph(C(6))
    assert len(hol6.group) == 12
    assert are_isomorphic(hol6.group, D(12)) is not None
    assert len(holomorph(D(30)).group) == 3600


@pytest.mark.parametrize(
    "spec",
    [SemidirectCC(3, 2, 2), Dihedral(6), Alternating4(), Cyclic(30)],
    ids=["SD(3,2;2)", "D6", "A4", "C30"],
)
def test_holomorph_structure(spec):
    hol = holomorph(build(spec))
    N, aut = hol.n_group, hol.aut
    assert len(hol.group) == len(N) * len(aut)
    lam_set = set(hol.lam)
    iota_set = set(hol.iota)
    ident = perm.identity(hol.group.degree)
    assert lam_set & iota_set == {ident}
    assert closure(list(lam_set | iota_set)).elements == hol.group.elements
    lam_group = PermGroup(hol.group.degree, hol.lam)
    assert is_regular(lam_group)
    compositions = {perm.compose(lam_t, alpha) for lam_t in hol.lam for alpha in hol.iota}
    assert set(hol.group.elements) == compositions


def test_holomorph_group_keeps_only_its_coordinates():
    # built as a witness checker builds it, with a stand-in group and tags:
    # both are dropped, and ``group`` is the listing, made on first read
    N = build(Dihedral(6))
    aut = automorphism_group(N)
    lam = tuple(left_translation(N, t) for t in range(len(N)))
    hol = HolomorphGroup(SimpleNamespace(degree=len(N)), N, aut, lam, aut.elements, {})
    for h in (hol, holomorph(N)):
        assert not {"group", "tags"} & set(vars(h))
    assert isinstance(vars(HolomorphGroup)["group"], property)
    listing = hol.group
    assert isinstance(listing, PermGroup) and hol.group is listing
    assert listing.elements == holomorph(N).group.elements
    assert not {"group", "tags"} & set(vars(hol))
    witness = realizable_via_cocycles(build(Cyclic(6)), N)
    assert subgroup_from_cocycle(witness, hol).iso_text == "C6"


def test_holomorph_is_memoized_per_group():
    N = build(Dihedral(10))
    assert holomorph(N) is holomorph(N)
    assert automorphism_group(N) is automorphism_group(N)
    assert holomorph(N).aut is automorphism_group(N)
    # an unshared copy is another key: its own Aut object, equal elements
    copy = PermGroup(N.degree, N.elements)
    assert automorphism_group(copy) is not automorphism_group(N)
    assert automorphism_group(copy).elements == automorphism_group(N).elements
    assert holomorph(copy).aut is automorphism_group(copy)


def test_holomorph_takes_any_generating_set(monkeypatch):
    base = D(10)
    N = PermGroup(base.degree, base.elements, generators=base.generators)
    automorphism_group(N)

    def refuse(self):
        raise AssertionError("minimal_generating_set called")

    monkeypatch.setattr(PermGroup, "minimal_generating_set", refuse)
    hol = holomorph(N)
    assert closure(list(hol.group.generators)).elements == hol.group.elements


@pytest.mark.parametrize("table_limit", [None, 4], ids=["aut-table", "no-aut-table"])
def test_holomorph_generators_are_a_greedy_set(monkeypatch, table_limit):
    # translations by N's generators and at most log2 |Aut N| automorphisms,
    # whether or not Aut(N) has a table (above TABLE_LIMIT it has none)
    base = D(30)
    N = PermGroup(base.degree, base.elements, generators=base.generators)
    if table_limit is not None:
        monkeypatch.setattr("hopfgalois.groups.TABLE_LIMIT", table_limit)
    hol = holomorph(N)
    lam, iota = set(hol.lam), set(hol.iota)
    gens = hol.group.generators
    assert [g for g in gens if g in lam] == [hol.lam[N.index_of(g)] for g in N.generators]
    automorphisms = [g for g in gens if g in iota]
    assert len(gens) == len(N.generators) + len(automorphisms)
    assert 2 ** len(automorphisms) <= len(hol.aut) == 120
    assert len(automorphisms) == 3
    assert closure(automorphisms).elements == hol.aut.elements
    assert (not memo_of(hol.aut, PermGroup.table)) == (table_limit is not None)


@pytest.mark.parametrize("order", [6, 10, 12])
def test_holomorph_invariants_across_catalog(order):
    for entry in catalog(order):
        hol = holomorph(entry.group)
        assert len(hol.group) == len(entry.group) * len(hol.aut)
        lam_group = PermGroup(hol.group.degree, hol.lam)
        assert is_regular(lam_group)


def test_catalog_returns_a_fresh_list():
    first = catalog(6)
    expected = list(first)
    first.clear()
    again = catalog(6)
    assert again == expected and again is not first


def test_catalog_counts():
    assert len(catalog(6)) == 2
    assert len(catalog(30)) == 4
    assert len(catalog(12)) == 5
    assert len(catalog(1)) == 1
    assert len(catalog(4)) == 2


@pytest.mark.parametrize(
    "order,classes",
    [
        # hand derivation via the coprime cyclic semidirect classification:
        # p x| q exists iff q = 1 mod p, and Z_m x| Z_2 twists are the
        # square roots of 1 mod m
        (15, 1),
        (21, 2),
        (33, 1),
        (35, 1),
        (39, 2),
        (42, 6),
        (55, 2),
        (66, 4),
        (70, 4),
        (78, 6),
        (105, 2),
        (110, 6),
        # Hölder's count: the sum over m | n of the product over p | m of
        # (p^c(p) - 1)/(p - 1), c(p) the number of primes q | n/m with p | q - 1
        (546, 24),
        (570, 12),
        (1155, 4),
    ],
)
def test_catalog_class_counts_squarefree(order, classes):
    assert len(catalog(order)) == classes


def test_catalog_pairwise_non_isomorphic():
    for order in (6, 12, 30):
        entries = catalog(order)
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                assert are_isomorphic(a.group, b.group) is None


def test_catalog_closure_under_semidirects():
    # every valid coprime cyclic semidirect of order 30 matches a class
    from math import gcd

    entries = catalog(30)
    for k in (1, 2, 3, 5, 6, 10, 15, 30):
        l = 30 // k
        if gcd(k, l) != 1:
            continue
        for t in range(1, k + 1):
            if gcd(t % k if k > 1 else 1, k) != 1 or pow(t, l, k) != 1 % k:
                continue
            idx = class_index(build(SemidirectCC(k, l, t)), entries)
            assert 0 <= idx < len(entries)
    # and the Hölder key splits the twists exactly as isomorphism does
    for order in (30, 42, 66, 78, 102, 110, 210):
        entries = catalog(order)
        by_key, by_class = {}, {}
        for k in (d for d in range(1, order + 1) if order % d == 0):
            l = order // k
            for t in _twists(k, l):
                by_key.setdefault(_holder_key(k, l, t), set()).add((k, t))
                G = _semidirect_pair(k, l, t, None)
                by_class.setdefault(class_index(G, entries), set()).add((k, t))
        assert set(map(frozenset, by_key.values())) == set(map(frozenset, by_class.values()))


def test_catalog_matches_iso_catalog():
    # byte-identical to the isomorphism-search oracle: specs and elements
    assert [n for n in range(1, 211) if is_squarefree(n) and catalog_differs(n)] == []


def test_normal_form_listing_matches_closure():
    # every twist at squarefree orders up to 210, element for element
    twists = [
        (k, n // k, t)
        for n in range(1, 211)
        if is_squarefree(n)
        for k in range(1, n + 1)
        if n % k == 0
        for t in _twists(k, n // k)
    ]
    assert len(twists) == 736
    differ = [
        (k, l, t)
        for k, l, t in twists
        if _semidirect_pair(k, l, t, None).elements != closure_pair(k, l, t).elements
    ]
    assert differ == []


def test_normal_form_refuses_a_bad_relation():
    # 2 is a unit mod 5 and y x y^-1 = x^2 holds, but 2^2 != 1 mod 5, so
    # y^2 is not the identity and the ten listed elements are no group
    with pytest.raises(CountingBugError, match="x\\^k = y\\^l = 1"):
        _semidirect_pair(5, 2, 2, None)


def test_catalog_unsupported():
    with pytest.raises(UnsupportedOrderError):
        catalog(8)
    with pytest.raises(UnsupportedOrderError):
        catalog(20)


def test_is_squarefree():
    assert is_squarefree(30) and is_squarefree(1)
    assert not is_squarefree(12) and not is_squarefree(9)


def test_decompose_burnside_cyclic():
    assert decompose_burnside(C(15)) == (15, 1, 1)


def test_decompose_burnside_order21():
    G = build(SemidirectCC(7, 3, 2))
    k, l, t = decompose_burnside(G)
    assert (k, l) == (7, 3) and t in (2, 4)
    assert are_isomorphic(build(SemidirectCC(k, l, t)), G) is not None


def test_decompose_burnside_rejects(z3xz3):
    assert decompose_burnside(z3xz3) is None


def test_decompose_rebuilds_isomorphic():
    for spec in (Dihedral(30), SemidirectZ2(15, 4), SemidirectCC(5, 4, 2)):
        G = build(spec)
        k, l, t = decompose_burnside(G)
        assert are_isomorphic(build(SemidirectCC(k, l, t)), G) is not None


def test_decompose_burnside_matches_lattice():
    # catalog groups and twice-odd odd parts up to order 100; catalog(12)
    # holds SD(3,4;2), whose Sylow 2-subgroup is Z_4
    assert tally(decompose_cases(100), decompose_differs)[1] == []


def test_decompose_burnside_keeps_its_twist():
    # the tie-breaks fix t, which need not be the least twist: t = 3 also
    # rebuilds the odd part of SD(11,10;2), and t = 11 SD(7,3;2)xC5
    odd = unique_odd_part(build(SemidirectCC(11, 10, 2)))
    assert decompose_burnside(odd) == (11, 5, 4)
    assert are_isomorphic(build(SemidirectCC(11, 5, 3)), odd) is not None
    G = build(DirectProduct(SemidirectCC(7, 3, 2), Cyclic(5)))
    assert decompose_burnside(G) == (35, 3, 16)
    assert are_isomorphic(build(SemidirectCC(35, 3, 11)), G) is not None


def test_decompose_burnside_above_the_lattice_bound():
    # every group of order 455 = 5 * 7 * 13 is cyclic, so the non-cyclic
    # case is Z_31 x| Z_15 of order 465, where the lattice walk stops
    G = build(SemidirectCC(31, 15, 2))
    with pytest.raises(BoundExceededError):
        lattice_decompose_burnside(G)
    k, l, t = decompose_burnside(G)
    assert (k, l) == (93, 5)
    assert are_isomorphic(build(SemidirectCC(k, l, t)), G) is not None


def test_shape_check_d30():
    w = shape_check_semidirect_z2(D(30))
    assert (w.k, w.l, w.t) == (15, 1, 1)


def test_shape_check_z30():
    w = shape_check_semidirect_z2(C(30))
    assert (w.k, w.l, w.t) == (15, 1, 1)


def test_shape_check_all_order_30():
    for entry in catalog(30):
        assert shape_check_semidirect_z2(entry.group) is not None


def test_z2_twists():
    assert z2_twists(15) == [1, 4, 11, 14]
    assert z2_twists(3) == [1, 2]
    assert z2_twists(1) == [1]


def test_holomorph_spec_builds():
    G = build(Holomorph(Cyclic(6)))
    assert len(G) == 12

