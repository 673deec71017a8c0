"""The benchmark tracer wraps library functions and methods by name.

``perfbench/tracing.py`` raises on install when a wrapped name is gone,
so renaming or deleting one breaks ``perfbench/run.py --trace 1``; this
test makes that visible in the suite.
"""

import importlib
from pathlib import Path

from hopfgalois import cli, groups, realize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # realize calls the automorphism_group it imported from factory, so
    # the tracer must replace that binding too
    before = (groups.homomorphisms, realize.automorphism_group, cli.main)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert realize.automorphism_group is not before[1]
    finally:
        tracer.uninstall()
    assert (groups.homomorphisms, realize.automorphism_group, cli.main) == before
