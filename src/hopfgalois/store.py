"""Append-only results store.

Records go to a line-delimited JSON file (one self-describing object per
line, schema-versioned) so runs can be grepped and replayed.  The store
writes that file and nothing else.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import HopfGaloisError

SCHEMA_VERSION = "1"
ENGINE_VERSION = "0.1.0"


class AutCache:
    """Unused by the library; kept only because perfbench/tracing.py names it
    (it goes with ROADMAP item 2)."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._data = {}
        if self.path.exists():
            try:
                with open(self.path, "r", encoding="utf-8") as fh:
                    self._data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise HopfGaloisError(
                    f"unreadable Aut cache {self.path}: {exc}"
                ) from exc
            if not isinstance(self._data, dict):
                raise HopfGaloisError(f"Aut cache {self.path} is not a JSON object")

    def _key(self, spec_text: str) -> str:
        return f"{ENGINE_VERSION}:{spec_text}"

    def get(self, spec_text: str):
        return self._data.get(self._key(spec_text))

    def put(self, spec_text: str, perms):
        self._data[self._key(spec_text)] = perms
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._data, fh, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError as exc:
            raise HopfGaloisError(f"cannot write Aut cache {self.path}: {exc}") from exc


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
