import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import cli, factory, realize
from hopfgalois.audit import AuditReport
from hopfgalois.factory import _semidirect_pair as semidirect_pair
from hopfgalois.groups import PermGroup
from hopfgalois.store import ResultsStore

from conftest import (
    AUDIT_BATTERY,
    BAD_AUDIT_ORDERS,
    BATTERIES,
    BOUND_REFUSALS,
    INPUT_REFUSALS,
    PARSER_REFUSALS,
    battery_golden,
    capped_python,
    run_cli,
)
from record_audit_battery import golden_changes

GOLDEN = Path(__file__).parent / "golden"


def test_realizable_exit_zero():
    code, out, _ = run_cli(["realizable", "--g", "C6", "--n", "D6"])
    assert code == 0
    assert "realizable: True" in out


def test_realizable_exit_three():
    code, out, _ = run_cli(["realizable", "--g", "A4", "--n", "D12", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["result"]["realizable"] is False
    assert payload["result"]["verdicts"] == {"cocycle": False, "search": False}


def test_cocycle_only_method():
    code, out, _ = run_cli(
        ["realizable", "--g", "C9", "--n", "C3xC3", "--method", "cocycle", "--format", "json"]
    )
    assert code == 3  # no order-9 elements exist in that holomorph


def test_bad_spec_is_error():
    for spec in ("SD(7,3;3)", "C0", "D3", "SD(0,2;1)", "SD(15,2;3)", "SDZ2(0;1)"):
        code, out, err = run_cli(["realizable", "--g", spec, "--n", "C21"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {spec}: ")
    assert run_cli(["realizable", "--g", "C6x", "--n", "C6"])[0] == 1


def test_usage_error_exit_two():
    assert run_cli(["realizable", "--g", "C6"])[0] == 2
    assert run_cli(["audit", "--theorem", "zzz", "--n", "3"])[0] == 2


def test_regular_subgroups_counts():
    code, out, _ = run_cli(["regular-subgroups", "--hol-of", "C6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["counts"] == {"C6": 1, "D6": 1}
    assert payload["result"]["strategy"] == "generator-pairs"


def test_regular_subgroups_order_bound_is_error(monkeypatch):
    def boom(N):
        raise AssertionError("Hol(N) built above the search bound")

    # the bound is checked before Hol(N) is built
    monkeypatch.setattr(realize, "holomorph", boom)
    monkeypatch.setattr(cli, "holomorph", boom, raising=False)
    for argv in (["regular-subgroups", "--hol-of", "C31"], ["braces", "--order", "42"]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.startswith("error: |N| = ")


def test_braces_order_6():
    code, out, _ = run_cli(["braces", "--order", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["result"]["braces"]
    assert payload["result"]["count"] == len(rows) > 0
    assert all(r["verified"] and r["translations_in_holomorph"] for r in rows)


def test_count_dihedral_json_field():
    code, out, _ = run_cli(["count-dihedral", "--n", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["e_formula"] == 28


def test_audit_exit_codes():
    code, _, _ = run_cli(["audit", "--theorem", "t001", "--n", "15"])
    assert code == 0
    code, _, _ = run_cli(["audit", "--theorem", "t004", "--n", "21"])
    assert code == 5
    code, _, _ = run_cli(["audit", "--theorem", "ses_final", "--n", "10"])
    assert code == 5
    code, out, _ = run_cli(["audit", "--theorem", "c001", "--n", "16"])
    assert code == 5
    assert out.splitlines()[-1] == "verdict: unsupported"
    # order 4 * 1000000000000000003 is not squarefree, and factoring it is quick
    code, out, _ = run_cli(["audit", "--theorem", "ses_final", "--n", "2000000000000000006"])
    assert code == 5
    assert out.splitlines()[-1] == "verdict: unsupported"


@pytest.mark.parametrize("theorem", ["p003", "p004"])
def test_audit_p004_above_subgroup_bound(theorem):
    # 455 = 5 * 7 * 13 is above the lattice bound of 400; element orders
    # decide the Sylow conditions, so the audit lists no subgroups
    code, out, _ = run_cli(["audit", "--theorem", theorem, "--n", "455"])
    assert code == 0
    assert out.splitlines()[-1] == "verdict: pass"


def test_audit_fail_exit_code(monkeypatch):
    from hopfgalois.audit import AuditInstance

    fake = AuditReport(
        "t001", 6, "fabricated", (AuditInstance("x", True, False),), "fail"
    )
    monkeypatch.setattr(cli, "run_audit", lambda tid, n: fake)
    code, _, _ = run_cli(["audit", "--theorem", "t001", "--n", "3"])
    assert code == 4


TABLE_CASES = [
    # argv, a line of the table, csv header, csv lines with the header
    (["catalog", "--order", "12"], "4      A4         12   ", "index,spec,order", 6),
    (
        ["braces", "--order", "6"],
        "count: 10",
        "additive,multiplicative,verified,translations_in_holomorph",
        11,
    ),
    (["count-dihedral", "--n", "3"], "e_formula: 28", "field,value", 8),
    (
        ["realizable", "--g", "C2 x C3", "--n", "D6", "--method", "cocycle"],
        "C2xC3  D6  cocycle  True      ",
        "g,n,method,realizable",
        2,
    ),
    (
        ["regular-subgroups", "--hol-of", "D6"],
        "D6        2      generator-pairs",
        "iso_type,count,strategy",
        3,
    ),
    (
        ["audit", "--theorem", "t001", "--n", "3"],
        "(SDZ2(3;2), D6)  True             True             N odd part = SD(3,1;1)      ",
        "subject,hypothesis_held,conclusion_held,witness,note",
        5,
    ),
]


def test_catalog_table_and_csv():
    for argv, line, header, lines in TABLE_CASES:
        code, table, _ = run_cli(argv)
        assert code == 0 and line in table.splitlines()
        code, csv_text, _ = run_cli(argv + ["--format", "csv"])
        assert code == 0
        assert csv_text.splitlines()[0] == header
        assert len(csv_text.strip().splitlines()) == lines


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["catalog", "--order", "6", "--format", "json"], "catalog_order6.json"),
        (["count-dihedral", "--n", "3", "--format", "json"], "count_dihedral_n3.json"),
        (["realizable", "--g", "C6", "--n", "D6", "--format", "json"], "realizable_c6_d6.json"),
        (["braces", "--order", "30", "--format", "json"], "braces_order30.json"),
    ],
)
def test_golden_files(argv, golden):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["realizable", "--g", "C6", "--n", "D6", "--format", "json"],
        ["regular-subgroups", "--hol-of", "D10", "--format", "json"],
        ["audit", "--theorem", "t001", "--n", "3", "--format", "json"],
    ],
)
def test_thread_count_does_not_change_bytes(argv):
    _, single, _ = run_cli(argv + ["--threads", "1"])
    _, multi, _ = run_cli(argv + ["--threads", "4"])
    assert single == multi


def test_count_dihedral_nan_budget_is_not_run():
    code, out, _ = run_cli(
        ["count-dihedral", "--n", "3", "--direct", "--budget", "nan", "--format", "json"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agreement"] == "direct-not-run"
    assert result["e_direct"] is None
    assert result["direct_method"].startswith("not-run")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_count_dihedral_past_the_int_text_limit_is_error(fmt):
    # 13001 is the last odd n whose e_formula prints under Python's default
    # limit of 4300 digits; the refusal at 15001 is a refusal battery row
    code, out, _ = run_cli(["count-dihedral", "--n", "13001", "--format", fmt])
    assert code == 0 and "e_formula" in out


# The CLI batteries (``conftest.BATTERIES``), run once in one capped
# child by the ``battery_faults_found`` fixture; each row is one case
# below, checked against its golden line, the refusal contract and the
# per-row bound.  ``tests/record_audit_battery.py`` re-records the goldens.
def test_goldens_hold_every_row_and_no_other():
    for name, (commands, _) in BATTERIES.items():
        assert list(json.loads(battery_golden(name).read_text())) == list(commands), name


def test_golden_changes_name_each_changed_added_and_dropped_line():
    old = {"p003 2": [1, "e3", "error: odd order required, got 2"], "p003 9": [0, "ab", ""]}
    new = {"p003 2": [1, "e3", "error: n must be odd and positive, got 2"], "p003 -3": [1, "e3", "x"]}
    assert golden_changes(old, new) == [
        'changed p003 2: [1, "e3", "error: odd order required, got 2"] -> '
        '[1, "e3", "error: n must be odd and positive, got 2"]',
        'added p003 -3: [1, "e3", "x"]',
        "dropped p003 9",
    ]
    assert golden_changes(old, old) == []


@pytest.mark.parametrize("key", AUDIT_BATTERY)
def test_audit_battery_row(battery_faults_found, key):
    assert not battery_faults_found["audit"][key]


@pytest.mark.parametrize("command", PARSER_REFUSALS.values(), ids=PARSER_REFUSALS)
def test_spec_past_the_parser_bounds_is_error(battery_faults_found, command):
    assert not battery_faults_found["refusal"][command]


@pytest.mark.parametrize("argv", [command.split() for command in BOUND_REFUSALS])
def test_oversized_group_is_error(battery_faults_found, argv):
    assert not battery_faults_found["refusal"][" ".join(argv)]


def test_product_is_refused_on_its_recipe_before_a_factor_is_built(monkeypatch):
    # C2000xC2000 is 4000000 permutations of degree 4000000: its order and
    # degree are read off the spec, so not even C2000 is listed before the
    # refusal
    made = []

    def spy(k, l, t, spec):
        made.append(k * l)
        return semidirect_pair(k, l, t, spec)

    monkeypatch.setattr(factory, "_semidirect_pair", spy)
    # a cold build memo, so no C2000 left by an earlier test hides a build
    monkeypatch.setattr(factory, "build", functools.cache(factory.build.__wrapped__))
    assert run_cli(["realizable", "--g", "C2000xC2000", "--n", "C3"]) == (
        1,
        "",
        "error: 4000000 permutations of degree 4000000 exceed the size bound "
        "4000000 (elements x degree)\n",
    )
    assert 2000 not in made


def test_product_with_a_holomorph_factor_is_refused_before_it_is_listed(monkeypatch):
    # Hol(C61) is sized as 61 * 60 elements of degree 61 off its Aut(C61),
    # so the product is refused with no 3660-element group made
    made = []

    def spy(degree, elements, *args, **kwargs):
        made.append(len(elements))
        return PermGroup(degree, elements, *args, **kwargs)

    monkeypatch.setattr(factory, "PermGroup", spy)
    # a cold build memo, so no Hol(C61) left by an earlier test hides a listing
    monkeypatch.setattr(factory, "build", functools.cache(factory.build.__wrapped__))
    assert run_cli(["realizable", "--g", "Hol(C61)xC20", "--n", "C3"]) == (
        1,
        "",
        "error: 73200 permutations of degree 1220 exceed the size bound "
        "4000000 (elements x degree)\n",
    )
    assert made and 61 * 60 not in made


@pytest.mark.parametrize("argv", [command.split() for command in INPUT_REFUSALS])
def test_bad_input_is_error(battery_faults_found, argv):
    assert not battery_faults_found["refusal"][" ".join(argv)]


@pytest.mark.parametrize("theorem, n", BAD_AUDIT_ORDERS)
def test_audit_bad_order_is_error(battery_faults_found, theorem, n):
    assert not battery_faults_found["refusal"][f"audit --theorem {theorem} --n {n}"]


def fresh_python(code):
    """The stdout of ``code`` run by a fresh ``python -S``: -S leaves out
    site, which may import modules of its own."""
    src = str(Path(hopfgalois.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_skips_dataclasses_inspect_and_csv():
    code = "import hopfgalois.cli, sys; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    assert fresh_python(code) == "[]\n"


LOADED = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'hopfgalois'))"
ENGINES = ["brace", "errors", "factory", "groups", "perm", "realize"]
# the command layer's names that the package loads on first use
LAZY = {
    "audit": ["AuditReport", "run_audit"],
    "counting": [
        "CountReport", "byott_aggregate", "chi", "count_hgs_dihedral",
        "direct_normalized_count", "euler_phi", "formula_count_dihedral",
        "is_burnside_number", "radical",
    ],
    "specparse": ["canonical_text", "parse_group_spec"],
}


def test_package_import_loads_only_the_engines():
    names = [(name, module) for module, names in LAZY.items() for name in names]
    code = f"""import sys, hopfgalois
{LOADED}
for name, module in {names!r}:
    value = getattr(hopfgalois, name)
    assert value is getattr(sys.modules['hopfgalois.' + module], name), name
    assert name in dir(hopfgalois), name
assert hopfgalois.factorize is sys.modules['hopfgalois.groups'].factorize
try:
    hopfgalois.no_such_name
except AttributeError as exc:
    print(exc)
"""
    loaded, refusal = fresh_python(code).splitlines()
    assert loaded == repr(["hopfgalois"] + [f"hopfgalois.{m}" for m in ENGINES])
    assert refusal == "module 'hopfgalois' has no attribute 'no_such_name'"


def test_cli_import_loads_every_command_module():
    modules = sorted(ENGINES + list(LAZY) + ["cli", "store"])
    assert fresh_python("import sys, hopfgalois.cli\n" + LOADED) == (
        repr(["hopfgalois"] + [f"hopfgalois.{m}" for m in modules]) + "\n"
    )


def test_store_records_and_replays(tmp_path):
    store_path = tmp_path / "results.jsonl"
    argv = ["realizable", "--g", "C6", "--n", "D6", "--store", str(store_path)]
    code, _, _ = run_cli(argv)
    assert code == 0
    store = ResultsStore(store_path)
    records = store.records()
    assert len(records) == 1
    rec = records[0]
    assert rec["schema_version"] == "1"
    assert rec["command"] == "realizable"
    assert rec["outcome"]["realizable"] is True
    assert "elapsed_ms" in rec
    # replaying the stored command reproduces the verdict
    code2, _, _ = run_cli(
        [rec["command"], "--g", rec["inputs"]["g"], "--n", rec["inputs"]["n"],
         "--store", str(store_path)]
    )
    assert code2 == rec["outcome"]["exit_code"]
    assert store.records()[1]["outcome"]["realizable"] is True


@pytest.mark.parametrize(
    "content", ['{"0.1.0:D6": [[0, 1, 2, 3, 4, 5]]}', "{not json"], ids=["cut-down", "corrupt"]
)
def test_leftover_aut_cache_file_is_ignored(tmp_path, content):
    # a fresh process, so no Aut(D6) computed by an earlier test can mask the file
    store_path = tmp_path / "results.jsonl"
    leftover = Path(str(store_path) + ".autcache.json")
    leftover.write_text(content)
    argv = ["realizable", "--g", "C6", "--n", "D6", "--method", "cocycle"]
    proc = capped_python(["-m", "hopfgalois", *argv, "--store", str(store_path)], None)
    assert proc.returncode == 0 and "realizable: True" in proc.stdout, proc.stderr
    assert leftover.read_bytes() == content.encode()


def test_store_writes_only_its_log(tmp_path):
    store_path = tmp_path / "results.jsonl"
    code, _, _ = run_cli(["regular-subgroups", "--hol-of", "C15", "--store", str(store_path)])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


@pytest.mark.parametrize("blocked", ["parent", "store"])
def test_unwritable_store_is_error(tmp_path, blocked):
    store_path = tmp_path / "results.jsonl"
    if blocked == "parent":  # the store's directory is a regular file
        (tmp_path / "F").write_text("")
        store_path = tmp_path / "F" / "x.jsonl"
    else:  # the store itself is a directory
        store_path.mkdir()
    argv = ["realizable", "--g", "C6", "--n", "D6", "--method", "cocycle"]
    code, out, err = run_cli(argv + ["--store", str(store_path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ")
