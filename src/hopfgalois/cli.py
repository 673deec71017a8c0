"""Command-line surface.

Exit codes partition outcomes so shell pipelines can tell them apart:
0 success (or audit pass), 1 error, 2 usage, 3 not realizable,
4 audit fail, 5 audit vacuous or unsupported.

JSON output is schema-stable (sorted keys, fixed field set, no timing)
and byte-identical across runs; timings go only to the results store.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .audit import THEOREM_IDS, run_audit
from .brace import brace_from_regular, lambda_circ_in_hol, verify_brace
from .counting import count_hgs_dihedral
from .errors import HopfGaloisError
from .factory import build, catalog, holomorph
from .realize import (
    realizable_via_cocycles,
    realizable_via_search,
    regular_subgroups,
)
from .specparse import parse_group_spec
from .store import SCHEMA_VERSION, ResultsStore

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_REALIZABLE = 3
EXIT_AUDIT_FAIL = 4
EXIT_AUDIT_VACUOUS = 5


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--store", default=None, help="append a JSONL record here")
    p.add_argument("--threads", type=int, default=1, help="ignored; both engines run on one thread")
    p.add_argument(
        "--seedless",
        action="store_true",
        help="reserved; output is deterministic with or without it",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfgalois",
        description="Realizability, skew braces, counts, and theorem audits "
        "for pairs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realizable", help="decide whether (G, N) is realizable")
    p.add_argument("--g", required=True, metavar="SPEC")
    p.add_argument("--n", required=True, metavar="SPEC")
    p.add_argument("--method", choices=("cocycle", "search", "both"), default="both")
    _common_flags(p)

    p = sub.add_parser("regular-subgroups", help="enumerate regular subgroups of Hol(N)")
    p.add_argument("--hol-of", required=True, metavar="SPEC", dest="hol_of")
    _common_flags(p)

    p = sub.add_parser("braces", help="all skew braces from regular subgroups at one order")
    p.add_argument("--order", required=True, type=int)
    _common_flags(p)

    p = sub.add_parser("count-dihedral", help="structure count for D_2n, n odd")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--direct", action="store_true", help="also run the exhaustive count")
    p.add_argument("--budget", type=float, default=None, help="seconds for --direct above order 6")
    _common_flags(p)

    p = sub.add_parser("audit", help="run one theorem audit")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--n", required=True, type=int)
    _common_flags(p)

    p = sub.add_parser("catalog", help="isomorphism classes at one order")
    p.add_argument("--order", required=True, type=int)
    _common_flags(p)

    return parser


def _cmd_realizable(args):
    g_spec = parse_group_spec(args.g)
    n_spec = parse_group_spec(args.n)
    G, N = build(g_spec), build(n_spec)
    if len(G) != len(N):
        raise HopfGaloisError(f"|G| = {len(G)} but |N| = {len(N)}")
    result = {
        "g": g_spec.text(),
        "n": n_spec.text(),
        "order": len(G),
        "method": args.method,
    }
    verdicts = {}
    if args.method in ("cocycle", "both"):
        w = realizable_via_cocycles(G, N)
        verdicts["cocycle"] = w is not None
        result["witness"] = (
            None
            if w is None
            else {
                "f_images": list(w.f.images),
                "g_images": list(w.g),
                "law_verified": w.verify_law(),
            }
        )
    if args.method in ("search", "both"):
        verdicts["search"] = realizable_via_search(G, N)
    if len(verdicts) == 2 and verdicts["cocycle"] != verdicts["search"]:
        raise HopfGaloisError(
            f"engine disagreement: cocycle={verdicts['cocycle']} "
            f"search={verdicts['search']}"
        )
    realizable = next(iter(verdicts.values()))
    result["verdicts"] = verdicts
    result["realizable"] = realizable
    code = EXIT_OK if realizable else EXIT_NOT_REALIZABLE
    return {"g": args.g, "n": args.n, "method": args.method}, result, code


def _cmd_regular_subgroups(args):
    n_spec = parse_group_spec(args.hol_of)
    N = build(n_spec)
    hol = holomorph(N)
    records = regular_subgroups(hol)
    counts = {}
    for r in records:
        counts[r.iso_text] = counts.get(r.iso_text, 0) + 1
    result = {
        "hol_of": n_spec.text(),
        "hol_order": len(hol.group),
        "strategy": records[0].strategy if records else "none",
        "total": len(records),
        "counts": dict(sorted(counts.items())),
    }
    return {"hol_of": args.hol_of}, result, EXIT_OK


def _cmd_braces(args):
    entries = catalog(args.order)
    rows = []
    for entry in entries:
        hol = holomorph(entry.group)
        for rec in regular_subgroups(hol):
            b = brace_from_regular(rec.subgroup, entry.group)
            rows.append(
                {
                    "additive": entry.spec.text(),
                    "multiplicative": rec.iso_text,
                    "verified": verify_brace(b),
                    "translations_in_holomorph": lambda_circ_in_hol(b),
                }
            )
    result = {"order": args.order, "count": len(rows), "braces": rows}
    return {"order": args.order}, result, EXIT_OK


def _cmd_count_dihedral(args):
    report = count_hgs_dihedral(
        args.n, with_direct=args.direct, budget_seconds=args.budget
    )
    return {"n": args.n, "direct": args.direct}, report.to_dict(), EXIT_OK


def _cmd_audit(args):
    report = run_audit(args.theorem, args.n)
    code = {
        "pass": EXIT_OK,
        "fail": EXIT_AUDIT_FAIL,
        "vacuous": EXIT_AUDIT_VACUOUS,
        "unsupported": EXIT_AUDIT_VACUOUS,
    }[report.verdict]
    return {"theorem": args.theorem, "n": args.n}, report.to_dict(), code


def _cmd_catalog(args):
    entries = catalog(args.order)
    rows = [
        {"index": i, "spec": e.spec.text(), "order": len(e.group)}
        for i, e in enumerate(entries)
    ]
    result = {"order": args.order, "classes": rows}
    return {"order": args.order}, result, EXIT_OK


_COMMANDS = {
    "realizable": _cmd_realizable,
    "regular-subgroups": _cmd_regular_subgroups,
    "braces": _cmd_braces,
    "count-dihedral": _cmd_count_dihedral,
    "audit": _cmd_audit,
    "catalog": _cmd_catalog,
}


def _rows(command: str, result: dict):
    if command == "realizable":
        return [
            {
                "g": result["g"],
                "n": result["n"],
                "method": result["method"],
                "realizable": result["realizable"],
            }
        ]
    if command == "regular-subgroups":
        return [
            {"iso_type": k, "count": v, "strategy": result["strategy"]}
            for k, v in result["counts"].items()
        ]
    if command == "braces":
        return result["braces"]
    if command == "count-dihedral":
        return [
            {"field": k, "value": json.dumps(v, sort_keys=True)}
            for k, v in sorted(result.items())
        ]
    if command == "audit":
        return result["instances"]
    if command == "catalog":
        return result["classes"]
    raise AssertionError(command)  # pragma: no cover


def _render(command: str, inputs: dict, result: dict, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "result": result,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = _rows(command, result)
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    lines = []
    if rows:
        cols = list(rows[0].keys())
        widths = [
            max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in cols
        ]
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)))
    for key in ("verdict", "realizable", "e_formula", "agreement", "total", "count"):
        if key in result:
            lines.append(f"{key}: {result[key]}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    store = None
    started = time.monotonic()
    try:
        if args.store:
            store = ResultsStore(args.store)
        inputs, result, code = _COMMANDS[args.command](args)
        if store is not None:
            elapsed_ms = int((time.monotonic() - started) * 1000)
            outcome = {"exit_code": code}
            for key in ("realizable", "verdict", "e_formula", "agreement", "total", "count"):
                if key in result:
                    outcome[key] = result[key]
            store.record(args.command, inputs, outcome, elapsed_ms)
    except HopfGaloisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(_render(args.command, inputs, result, args.format))
    return code


def app():  # console entry point
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    app()
