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
    shape_check_semidirect_z2,
    z2_twists,
)
from hopfgalois import perm
from hopfgalois.errors import (
    BoundExceededError,
    PreconditionError,
    SpecSemanticError,
    UnsupportedOrderError,
)
from hopfgalois.factory import is_squarefree
from hopfgalois.groups import PermGroup, closure

from conftest import C, D, brute_force_automorphisms


def test_build_cyclic():
    G = C(6)
    assert len(G) == 6 and len(G.generators) == 1


def test_build_semidirect_cc():
    G = build(SemidirectCC(7, 3, 2))
    assert len(G) == 21 and not G.is_abelian()


def test_build_semidirect_z2():
    G = build(SemidirectZ2(15, 4))
    assert len(G) == 30
    assert not is_cyclic(G)
    assert are_isomorphic(G, D(30)) is None


def test_build_a4():
    G = build(Alternating4())
    assert len(G) == 12 and not G.is_abelian()


def test_build_direct_product():
    G = build(DirectProduct(Cyclic(2), Cyclic(6)))
    assert len(G) == 12 and G.is_abelian() and not is_cyclic(G)


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
    for h in hol.group.elements:
        t, a = hol.tags[h]
        assert perm.compose(hol.lam[t], hol.iota[a]) == h


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

