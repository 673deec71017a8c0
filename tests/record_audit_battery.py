"""Re-record both CLI battery goldens, ``tests/golden/audit_battery.json``
and ``tests/golden/refusal_battery.json``:

    PYTHONPATH=src:tests python tests/record_audit_battery.py

The batteries run in one capped child, as Tier-1's row tests run them
(``conftest.capped_batteries``), and each golden line is that row's exit
code, stdout sha256 and last stderr line.  Re-record only when a change
means to change an answer, and list every changed line with the change:
the tool prints each line it changes (key, old -> new) and each key it
adds or drops.  The file name keeps pytest from collecting it.
"""

import json

from conftest import BATTERIES, battery_golden, capped_batteries, golden_line, golden_text


def golden_changes(old, new):
    """What turns golden ``old`` into ``new``, both {key: golden line}: a
    line per changed key, then per added key, then per dropped key."""
    lines = [
        f"changed {key}: {json.dumps(old[key])} -> {json.dumps(line)}"
        for key, line in new.items() if key in old and old[key] != line
    ]
    lines += [f"added {key}: {json.dumps(line)}" for key, line in new.items() if key not in old]
    return lines + [f"dropped {key}" for key in old if key not in new]


if __name__ == "__main__":
    for name, rows in capped_batteries(BATTERIES).items():
        path = battery_golden(name)
        old = json.loads(path.read_text()) if path.exists() else {}
        new = {key: golden_line(row) for key, row in rows.items()}
        path.write_text(golden_text(rows))
        print(f"wrote {path}")
        for line in golden_changes(old, new):
            print(f"  {line}")
