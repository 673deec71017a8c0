"""Re-record both CLI battery goldens, ``tests/golden/audit_battery.json``
and ``tests/golden/refusal_battery.json``:

    PYTHONPATH=src:tests python tests/record_audit_battery.py

The batteries run in one capped child, as Tier-1's row tests run them
(``conftest.capped_batteries``), and each golden line is that row's exit
code, stdout sha256 and last stderr line.  Re-record only when a change
means to change an answer, and list every changed line with the change.
The file name keeps pytest from collecting it.
"""

from conftest import BATTERIES, battery_golden, capped_batteries, golden_text

if __name__ == "__main__":
    for name, rows in capped_batteries(BATTERIES).items():
        battery_golden(name).write_text(golden_text(rows))
        print(f"wrote {battery_golden(name)}")
