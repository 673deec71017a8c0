"""Re-record the audit battery's golden, ``tests/golden/audit_battery.json``:

    PYTHONPATH=src:tests python tests/record_audit_battery.py

Tier-1's ``test_audit_battery_golden`` runs the same battery and compares.
Re-record only when a change means to change an answer, and list every
changed line with the change.  The file name keeps pytest from
collecting it.
"""

from conftest import AUDIT_BATTERY_GOLDEN, audit_battery

if __name__ == "__main__":
    AUDIT_BATTERY_GOLDEN.write_text(audit_battery())
    print(f"wrote {AUDIT_BATTERY_GOLDEN}")
