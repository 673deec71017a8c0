"""Append-only results store.

Records go to a line-delimited JSON file (one self-describing object per
line, schema-versioned) so runs can be grepped and replayed.  The store
writes that file and nothing else; ``AutCache`` keeps no file and no
entry.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import HopfGaloisError

SCHEMA_VERSION = "1"
ENGINE_VERSION = "0.1.0"


class AutCache:
    """A name only: nothing reads or writes an Aut cache.  ``get`` finds
    nothing and ``put`` keeps nothing; perfbench/tracing.py still wraps
    the three methods, and the class goes with it (ROADMAP item 1)."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def get(self, spec_text: str):
        return None

    def put(self, spec_text: str, perms):
        pass


class ResultsStore:
    """One JSONL record per command run."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise HopfGaloisError(
                f"cannot create store directory {self.path.parent}: {exc}"
            ) from exc

    def record(self, command: str, inputs: dict, outcome: dict, elapsed_ms: int):
        entry = {
            "schema_version": SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "command": command,
            "inputs": inputs,
            "outcome": outcome,
            "elapsed_ms": elapsed_ms,
        }
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError as exc:
            raise HopfGaloisError(f"cannot write store {self.path}: {exc}") from exc

    def records(self) -> list:
        if not self.path.exists():
            return []
        out = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out
