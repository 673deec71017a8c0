import json
from pathlib import Path

import pytest

from hopfgalois import CatalogEntry, Cyclic, audit, build, catalog, run_audit
from hopfgalois.audit import (
    THEOREM_IDS,
    AuditInstance,
    _verdict,
    audit_c001,
    audit_p001,
    audit_p003,
    audit_p004,
    audit_p005,
    audit_r002,
    audit_ses_final,
    audit_t001,
    audit_t002,
    audit_t003,
    audit_t004,
    cached_realizable,
)
from hopfgalois.errors import BoundExceededError, PreconditionError
from hopfgalois.groups import TABLE_LIMIT

from conftest import fresh_copy


def test_verdict_logic():
    ok = AuditInstance("a", True, True)
    bad = AuditInstance("b", True, False)
    idle = AuditInstance("c", False, None)
    assert _verdict([ok]) == "pass"
    assert _verdict([ok, bad]) == "fail"
    assert _verdict([idle]) == "vacuous"
    assert _verdict([idle, ok]) == "pass"


def test_p001_small():
    report = audit_p001(3)
    assert report.verdict == "pass" and report.order == 6
    assert len(report.instances) == 2
    report = audit_p001(15)
    assert report.verdict == "pass" and report.order == 30
    assert len(report.instances) == 14


def test_p001_rejects_bad_order():
    for n in (2, -3):
        with pytest.raises(PreconditionError, match=f"^n must be odd and positive, got {n}$"):
            audit_p001(n)


def test_t001_pass_and_nonvacuous():
    for n in (3, 15):
        report = audit_t001(n)
        assert report.verdict == "pass"
        assert any(i.hypothesis_held for i in report.instances)


def test_t003_flags_typo_reading():
    report = audit_t003(3)
    assert report.verdict == "pass"
    assert any("typo" in f for f in report.flags)


def test_t004_pass_and_vacuous():
    assert audit_t004(15).verdict == "pass"
    vac = audit_t004(21)
    assert vac.verdict == "vacuous"
    assert vac.instances == ()
    assert any("Burnside" in f for f in vac.flags)


def test_t004_family_does_not_rest_on_catalog_identity(monkeypatch):
    # a catalog that returns new group objects on every read, as an
    # evicting cache would, must not change a row
    expected = run_audit("t004", 15).to_dict()
    assert "G in family: True" in str(expected)

    def fresh_catalog(order):
        return [CatalogEntry(e.spec, fresh_copy(e.group)) for e in catalog(order)]

    monkeypatch.setattr(audit, "catalog", fresh_catalog)
    assert run_audit("t004", 15).to_dict() == expected


def test_r002_every_twist():
    report = audit_r002(15)
    assert report.verdict == "pass"
    assert len(report.instances) == 4
    assert all(i.hypothesis_held and i.conclusion_held for i in report.instances)


def test_p005():
    report = audit_p005(15)
    assert report.verdict == "pass"
    assert len(report.instances) == 4


def test_p003_p004_order_21(monkeypatch):
    # the audits take C_m from the catalog: a second copy built with
    # ``build`` would build a second full table
    def boom(spec):
        raise AssertionError(f"audit built {spec}")

    monkeypatch.setattr(audit, "build", boom)
    for order in (21, 105):
        r3 = audit_p003(order)
        assert r3.verdict == "pass" and len(r3.instances) == 2
        assert any("cannot fail at this order" in i.note for i in r3.instances)
        r4 = audit_p004(order)
        assert r4.verdict == "pass" and len(r4.instances) == 2


def test_p003_rejects_even_or_nonsquarefree():
    with pytest.raises(PreconditionError):
        audit_p003(6)
    with pytest.raises(PreconditionError):
        audit_p003(9)


def test_t002_includes_trivial_and_full():
    report = audit_t002(3)
    assert report.verdict == "pass"
    sizes = {i.subject.split("|M| = ")[-1] for i in report.instances if "|M|" in i.subject}
    assert {"1", "6"} <= sizes


def test_ses_final_order_12():
    report = audit_ses_final(6)
    assert report.verdict == "pass"
    assert len(report.instances) == 5
    a4 = next(i for i in report.instances if i.subject.startswith("(A4"))
    # the one group without an index-2 subgroup never satisfies the hypothesis
    assert not a4.hypothesis_held
    assert any("kl = n" in f for f in report.flags)


def test_ses_final_unsupported_order():
    report = audit_ses_final(10)
    assert report.verdict == "unsupported"
    assert report.instances == ()


def test_ses_final_rejects_wrong_n():
    with pytest.raises(PreconditionError):
        audit_ses_final(3)
    with pytest.raises(PreconditionError):
        audit_ses_final(4)


def test_c001_order_12():
    report = audit_c001(12)
    assert report.verdict == "pass"
    hyp = {i.subject: i.hypothesis_held for i in report.instances}
    assert hyp["C12"] and hyp["SD(3,4;2)"]
    assert not hyp["D12"] and not hyp["A4"] and not hyp["C2xC6"]


@pytest.mark.parametrize("order", [15, 30])
def test_cached_realizable_keys_on_group_objects(order):
    z = build(Cyclic(order))
    cat = catalog(order)[0].group
    assert z is not cat and z.label == cat.label
    cached_realizable(cat, z)
    witness = cached_realizable(z, cat)
    assert witness.domain is z and witness.n_group is cat


@pytest.mark.parametrize(
    "theorem, n",
    [pytest.param(t, 51, id=t) for t in ("t001", "t002", "t003", "t004", "r002", "p005")]
    + [pytest.param("p003", 273, id="p003-273"), pytest.param("t002", 201, id="t002-201")],
)
def test_audits_refuse_on_aut_before_the_first_row(monkeypatch, theorem, n):
    # at order 102 D102 is the N of some row and |Aut D102| = 1632, at
    # order 273 a catalog N has |Aut N| = 6552, and at order 402
    # |Aut SD(201,2;133)| = 8844, so the audit must refuse before any row
    # runs the cocycle engine
    def no_rows(G, N):
        raise AssertionError(f"a row ran on ({G}, {N})")

    monkeypatch.setattr(audit, "realizable_via_cocycles", no_rows)
    monkeypatch.setattr(audit, "cached_realizable", no_rows)
    with pytest.raises(BoundExceededError, match=f"^no table above {TABLE_LIMIT} elements$"):
        run_audit(theorem, n)


def test_run_audit_dispatch():
    assert run_audit("t001", 3).verdict == "pass"
    assert run_audit("p001", 3).order == 6
    with pytest.raises(PreconditionError):
        run_audit("zzz", 3)


def test_reports_are_deterministic():
    a = json.dumps(audit_t001(3).to_dict(), sort_keys=True)
    b = json.dumps(audit_t001(3).to_dict(), sort_keys=True)
    assert a == b


def test_report_records_domain():
    report = audit_t001(3)
    assert "twists" in report.domain and "catalog" in report.domain
    assert report.to_dict()["scope_note"]


def test_theorem_ids_keep_their_order():
    # the order of ``audit --theorem`` choices in --help and usage errors
    assert THEOREM_IDS == (
        "p001", "c001", "t001", "t002", "t003", "t004",
        "p005", "ses_final", "r002", "p003", "p004",
    )


GOLDEN_AUDITS = Path(__file__).parent / "golden" / "audits.json"


def test_audit_golden():
    """Every theorem's report at two sizes, byte for byte."""
    cases = [(t, n) for t in THEOREM_IDS for n in ((6, 10) if t == "ses_final" else (3, 15))]
    reports = {f"{t} {n}": run_audit(t, n).to_dict() for t, n in cases}
    assert json.dumps(reports, sort_keys=True, indent=2) + "\n" == GOLDEN_AUDITS.read_text()


GOLDEN_SHAPE_AUDITS = Path(__file__).parent / "golden" / "shape_audits.json"


def test_shape_audit_golden():
    """t001 and t003 where the odd part is not cyclic (SD(7,3;2), SD(13,3;3))."""
    reports = {f"{t} {n}": run_audit(t, n).to_dict() for t in ("t001", "t003") for n in (21, 39)}
    assert json.dumps(reports, sort_keys=True, indent=2) + "\n" == GOLDEN_SHAPE_AUDITS.read_text()
