"""The package's records: plain classes on one base, with value semantics."""

import pytest

from hopfgalois import (
    Alternating4,
    AuditReport,
    CatalogEntry,
    CountReport,
    CrossedHom,
    Cyclic,
    Dihedral,
    DirectProduct,
    Homomorphism,
    RegularSubgroupRecord,
    SemidirectCC,
    build,
    run_audit,
)
from hopfgalois.audit import AuditInstance
from hopfgalois.factory import HolomorphGroup
from hopfgalois.groups import Factorization


def test_records_of_different_classes_differ():
    assert Cyclic(6) != Dihedral(6)
    assert Cyclic(6) == Cyclic(6) and Alternating4() == Alternating4()
    assert len({Cyclic(6), Dihedral(6), Cyclic(6)}) == 2
    assert Factorization(((2, 1),)) != ((2, 1),)


def test_hash_is_the_field_tuple_hash():
    assert hash(Cyclic(6)) == hash((6,))
    assert hash(SemidirectCC(7, 3, 2)) == hash((7, 3, 2))
    assert hash(DirectProduct(Cyclic(2), Cyclic(3))) == hash((Cyclic(2), Cyclic(3)))
    assert hash(Alternating4()) == hash(())


@pytest.mark.parametrize("record", [Cyclic(6), Factorization(((2, 1),)), AuditInstance("s", True, None)])
def test_frozen_record_refuses_assignment(record):
    name = type(record)._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, "x")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_keyword_construction_and_defaults():
    inst = AuditInstance(subject="s", hypothesis_held=True, conclusion_held=None, note="n")
    assert inst == AuditInstance("s", True, None, "", "n")
    assert inst.witness == ""
    report = AuditReport("t001", 6, "d", (), "vacuous")
    assert report.flags == ()
    assert CountReport(3, {}, 28, None, None, "direct-not-run").warnings == ()
    with pytest.raises(TypeError):
        AuditInstance("s", True)
    with pytest.raises(TypeError):
        AuditInstance("s", True, None, subject="t")
    with pytest.raises(TypeError):
        Cyclic(6, 7)


def test_repr_names_every_field():
    assert repr(DirectProduct(Cyclic(2), Dihedral(6))) == (
        "DirectProduct(left=Cyclic(n=2), right=Dihedral(order2n=6))"
    )
    assert repr(AuditInstance("s", True, None)) == (
        "AuditInstance(subject='s', hypothesis_held=True, conclusion_held=None, "
        "witness='', note='')"
    )


def test_to_dict_keeps_field_order():
    report = run_audit("t001", 5)
    data = report.to_dict()
    assert list(data) == [*AuditReport._fields, "scope_note"]
    assert isinstance(data["instances"], tuple)
    assert list(data["instances"][0]) == list(AuditInstance._fields)


def test_holomorph_group_is_mutable_and_hashed_by_identity():
    a, b = (HolomorphGroup(None, None, None, (), (), {}) for _ in range(2))
    assert a != b and a == a and len({a, b}) == 2
    a.tags = {"x": 1}
    assert a.tags == {"x": 1}


def test_hot_constructors_fill_fields_in_order():
    G = build(Cyclic(2))
    f = Homomorphism(G, G, (0, 1))
    crossed = CrossedHom(f, (0, 1), G, True)
    record = RegularSubgroupRecord(G, 0, "C2", crossed, "cocycle")
    for rec in (f, crossed, record):
        assert list(vars(rec)) == list(type(rec)._fields)
    assert crossed == CrossedHom(f=f, g=(0, 1), n_group=G, bijective=True)
    assert CatalogEntry(Cyclic(2), G).spec == Cyclic(2)

