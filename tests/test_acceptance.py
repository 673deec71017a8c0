"""Acceptance gate: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Wall-time limits are asserted where the criterion states one.
"""

import json
import random
import sys
import time

from hopfgalois import (
    Cyclic,
    Dihedral,
    DirectProduct,
    SemidirectZ2,
    brace_from_regular,
    build,
    byott_aggregate,
    canonical_text,
    catalog,
    chi,
    count_hgs_dihedral,
    direct_normalized_count,
    formula_count_dihedral,
    holomorph,
    lambda_circ_in_hol,
    parse_group_spec,
    realizable_via_cocycles,
    realizable_via_search,
    regular_subgroups,
    run_audit,
    verify_brace,
    z2_twists,
)

import test_brace as brace_helpers
from conftest import run_cli


def report(cid, ok, detail):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_criterion_1_paper_example_pairs():
    worst = 0.0
    for k in (3, 5, 7, 15):
        start = time.monotonic()
        code, _, _ = run_cli(["realizable", "--g", f"C{2 * k}", "--n", f"D{2 * k}"])
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert code == 0, f"k={k} exited {code}"
        assert elapsed <= 60.0, f"k={k} took {elapsed:.1f}s"
    report(
        "C1",
        True,
        f"(C2k, D2k) realizable for k in (3,5,7,15); slowest run {worst:.1f}s <= 60s",
    )


def test_criterion_2_dihedral_against_every_twist():
    checked = 0
    for n in (3, 5, 7, 15):
        G = build(Dihedral(2 * n))
        for s in z2_twists(n):
            N = build(SemidirectZ2(n, s))
            w = realizable_via_cocycles(G, N)
            assert w is not None, f"no witness for (D{2*n}, SDZ2({n};{s}))"
            assert w.bijective and w.verify_law(), "law failed on some pair"
            checked += 1
    report("C2", True, f"{checked} twist pairs realizable with fully verified cocycles")


def test_criterion_3_oracle_equivalence():
    disagreements = 0
    pairs = 0
    for order in (6, 10, 14, 22, 26):
        entries = catalog(order)
        for g in entries:
            for n in entries:
                a = realizable_via_cocycles(g.group, n.group) is not None
                b = realizable_via_search(g.group, n.group)
                pairs += 1
                if a != b:
                    disagreements += 1
    report(
        "C3",
        disagreements == 0,
        f"cocycle and search engines agree on all {pairs} pairs at orders 6,10,14,22,26",
    )


def test_criterion_4_hol_z6_fixture():
    recs = regular_subgroups(holomorph(build(Cyclic(6))))
    counts = {}
    for r in recs:
        counts[r.iso_text] = counts.get(r.iso_text, 0) + 1
    report(
        "C4",
        counts == {"C6": 1, "D6": 1},
        f"Hol(Z6) regular subgroups = {counts} (expected C6: 1, D6: 1)",
    )


def test_criterion_5_braces_and_biconditional():
    orders = (6, 10, 12, 14, 15, 21, 22, 26, 30)
    braces = 0
    for order in orders:
        for entry in catalog(order):
            hol = holomorph(entry.group)
            for rec in regular_subgroups(hol):
                B = brace_from_regular(rec.subgroup, entry.group)
                assert verify_brace(B), (entry.spec.text(), rec.iso_text)
                assert lambda_circ_in_hol(B), (entry.spec.text(), rec.iso_text)
                braces += 1
    rng = random.Random(20240817)
    agreements = 0
    non_braces = 0
    for _ in range(1000):
        B = brace_helpers.random_pair(rng)
        a, b = verify_brace(B), lambda_circ_in_hol(B)
        assert a == b, "brace law and holomorph membership disagreed"
        agreements += 1
        non_braces += not a
    report(
        "C5",
        True,
        f"{braces} braces at orders {orders} verified both ways; "
        f"biconditional agreed on 1000 adversarial pairs ({non_braces} non-braces)",
    )


def test_criterion_6_p001_all_catalog_orders():
    rep = run_audit("p001", 31)
    orders = sorted({int(i.subject.split("order ")[-1].rstrip(")")) for i in rep.instances})
    ok = rep.verdict == "pass" and orders == [6, 10, 14, 22, 26, 30, 34, 38, 46, 58, 62]
    report(
        "C6",
        ok,
        f"unique odd part audit {rep.verdict} over {len(rep.instances)} groups at orders {orders}",
    )


def test_criterion_7_theorem_audits():
    start = time.monotonic()
    results = {}
    for n in (3, 5, 7, 15):
        for tid in ("t001", "t003", "t002", "t004", "p005"):
            rep = run_audit(tid, n)
            results[(tid, n)] = rep.verdict
            assert rep.verdict == "pass", f"{tid} at n={n}: {rep.verdict}"
            assert any(i.hypothesis_held for i in rep.instances), f"{tid} n={n} vacuous"
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"audit matrix took {elapsed:.0f}s"
    report(
        "C7",
        True,
        f"t001/t003/t002/t004/p005 pass non-vacuously at n in (3,5,7,15) in {elapsed:.1f}s <= 600s",
    )


def test_criterion_8_counting_fixtures():
    ok_chi = chi(15) == {0: 15, 1: 8, 2: 1}
    e3, e15 = formula_count_dihedral(3), formula_count_dihedral(15)
    table = chi(15)
    reversed_sum = sum(2**m * table.get(15 - m, 0) for m in reversed(range(16)))
    ok = (
        ok_chi
        and e3 == 28
        and e15 == 630784
        and isinstance(e3, int)
        and isinstance(e15, int)
        and reversed_sum == e15
    )
    report(
        "C8",
        ok,
        f"chi(15) = {table}; e_formula(3) = {e3}; e_formula(15) = {e15}; "
        "summation orders agree exactly",
    )


def test_criterion_9_cross_validation():
    specs = [
        Cyclic(1),
        Cyclic(2),
        Cyclic(3),
        Cyclic(4),
        DirectProduct(Cyclic(2), Cyclic(2)),
        Cyclic(5),
        Cyclic(6),
        Dihedral(6),
    ]
    for spec in specs:
        G = build(spec)
        b, d = byott_aggregate(G), direct_normalized_count(G)
        assert b == d, f"{spec.text()}: byott {b} != direct {d}"
    rep = count_hgs_dihedral(3, with_direct=True)
    assert rep.e_direct is not None and rep.agreement in ("match", "mismatch")
    report(
        "C9",
        True,
        f"byott = direct for all 8 groups of order <= 6; e_formula(3) = {rep.e_formula} "
        f"vs direct(D6) = {rep.e_direct}: {rep.agreement} (recorded finding)",
    )


def test_criterion_10_parser_and_format_stability():
    orders = (1, 2, 3, 4, 5, 6, 10, 12, 14, 15, 21, 22, 26, 30)
    count = 0
    for order in orders:
        for entry in catalog(order):
            text = canonical_text(entry.spec)
            assert parse_group_spec(text) == entry.spec, text
            count += 1
    stable = True
    for argv in (
        ["catalog", "--order", "6", "--format", "json"],
        ["count-dihedral", "--n", "3", "--format", "json"],
        ["realizable", "--g", "C6", "--n", "D6", "--format", "json"],
        ["audit", "--theorem", "r002", "--n", "3", "--format", "json"],
    ):
        _, one, _ = run_cli(argv + ["--threads", "1"])
        _, four, _ = run_cli(argv + ["--threads", "4"])
        json.loads(one)
        stable = stable and one == four
    report(
        "C10",
        stable,
        f"round trip holds for {count} catalog specs; JSON byte-identical at "
        "--threads 1 and 4",
    )
