import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import cli
from hopfgalois.audit import AuditReport
from hopfgalois.store import ResultsStore

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_realizable_exit_zero():
    code, out = run_cli(["realizable", "--g", "C6", "--n", "D6"])
    assert code == 0
    assert "realizable: True" in out


def test_realizable_exit_three():
    code, out = run_cli(["realizable", "--g", "A4", "--n", "D12", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["result"]["realizable"] is False
    assert payload["result"]["verdicts"] == {"cocycle": False, "search": False}


def test_cocycle_only_method():
    code, out = run_cli(
        ["realizable", "--g", "C9", "--n", "C3xC3", "--method", "cocycle", "--format", "json"]
    )
    assert code == 3  # no order-9 elements exist in that holomorph


def test_order_mismatch_is_error():
    code, _ = run_cli(["realizable", "--g", "C6", "--n", "C10"])
    assert code == 1


def test_bad_spec_is_error():
    code, _ = run_cli(["realizable", "--g", "SD(7,3;3)", "--n", "C21"])
    assert code == 1
    code, _ = run_cli(["realizable", "--g", "C6x", "--n", "C6"])
    assert code == 1


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as info:
        run_cli(["realizable", "--g", "C6"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli(["audit", "--theorem", "zzz", "--n", "3"])
    assert info.value.code == 2


def test_regular_subgroups_counts():
    code, out = run_cli(["regular-subgroups", "--hol-of", "C6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["counts"] == {"C6": 1, "D6": 1}
    assert payload["result"]["strategy"] == "generator-pairs"


def test_regular_subgroups_order_bound_is_error(capsys):
    code, out = run_cli(["regular-subgroups", "--hol-of", "C31"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_braces_order_6():
    code, out = run_cli(["braces", "--order", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["result"]["braces"]
    assert payload["result"]["count"] == len(rows) > 0
    assert all(r["verified"] and r["translations_in_holomorph"] for r in rows)


def test_count_dihedral_json_field():
    code, out = run_cli(["count-dihedral", "--n", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["e_formula"] == 28


def test_audit_exit_codes():
    code, _ = run_cli(["audit", "--theorem", "t001", "--n", "15"])
    assert code == 0
    code, _ = run_cli(["audit", "--theorem", "t004", "--n", "21"])
    assert code == 5
    code, _ = run_cli(["audit", "--theorem", "ses_final", "--n", "10"])
    assert code == 5


def test_audit_bad_order_is_error(capsys):
    code, out = run_cli(["audit", "--theorem", "p001", "--n", "-3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_audit_fail_exit_code(monkeypatch):
    from hopfgalois.audit import AuditInstance

    fake = AuditReport(
        "t001", 6, "fabricated", (AuditInstance("x", True, False),), "fail"
    )
    monkeypatch.setattr(cli, "run_audit", lambda tid, n: fake)
    code, _ = run_cli(["audit", "--theorem", "t001", "--n", "3"])
    assert code == 4


def test_catalog_table_and_csv():
    code, table = run_cli(["catalog", "--order", "12"])
    assert code == 0 and "A4" in table
    code, csv_text = run_cli(["catalog", "--order", "12", "--format", "csv"])
    assert code == 0
    assert csv_text.splitlines()[0] == "index,spec,order"
    assert len(csv_text.strip().splitlines()) == 6


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["catalog", "--order", "6", "--format", "json"], "catalog_order6.json"),
        (["count-dihedral", "--n", "3", "--format", "json"], "count_dihedral_n3.json"),
        (["realizable", "--g", "C6", "--n", "D6", "--format", "json"], "realizable_c6_d6.json"),
    ],
)
def test_golden_files(argv, golden):
    code, out = run_cli(argv)
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
    _, single = run_cli(argv + ["--threads", "1"])
    _, multi = run_cli(argv + ["--threads", "4"])
    assert single == multi


def test_count_dihedral_nan_budget_is_not_run():
    code, out = run_cli(
        ["count-dihedral", "--n", "3", "--direct", "--budget", "nan", "--format", "json"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agreement"] == "direct-not-run"
    assert result["e_direct"] is None
    assert result["direct_method"].startswith("not-run")


def test_four_generator_group_is_error(capsys):
    code, _ = run_cli(["realizable", "--g", "C2xC2xC2xC2", "--n", "C16"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_seedless_flag_accepted():
    code, _ = run_cli(["catalog", "--order", "6", "--seedless"])
    assert code == 0


def test_store_records_and_replays(tmp_path):
    store_path = tmp_path / "results.jsonl"
    argv = ["realizable", "--g", "C6", "--n", "D6", "--store", str(store_path)]
    code, _ = run_cli(argv)
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
    code2, _ = run_cli(
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
    env = dict(os.environ, PYTHONPATH=str(Path(hopfgalois.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfgalois", *argv, "--store", str(store_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and "realizable: True" in proc.stdout, proc.stderr
    assert leftover.read_bytes() == content.encode()


def test_store_writes_only_its_log(tmp_path):
    store_path = tmp_path / "results.jsonl"
    code, _ = run_cli(["regular-subgroups", "--hol-of", "C15", "--store", str(store_path)])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


@pytest.mark.parametrize("blocked", ["parent", "store"])
def test_unwritable_store_is_error(tmp_path, capsys, blocked):
    store_path = tmp_path / "results.jsonl"
    if blocked == "parent":  # the store's directory is a regular file
        (tmp_path / "F").write_text("")
        store_path = tmp_path / "F" / "x.jsonl"
    else:  # the store itself is a directory
        store_path.mkdir()
    argv = ["realizable", "--g", "C6", "--n", "D6", "--method", "cocycle"]
    code, out = run_cli(argv + ["--store", str(store_path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")
