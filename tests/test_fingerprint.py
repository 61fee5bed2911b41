"""``tests/fingerprint.py`` runs against this checkout.

Every claim that a change leaves the seeded outputs as they were rests on
that script, which pytest does not collect; a library change that renames
or removes what it reads breaks it, and this test fails with it.
"""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "fingerprint.py"


def _digest(fingerprint) -> str:
    """The script's hash of one seeded replication at (12, 3) and of one risk report."""
    h = hashlib.sha256()
    for _, thunk in fingerprint._outputs(12, 3, 0):
        fingerprint._update(h, thunk())  # no output of this replication raises
    (report, *_) = fingerprint.run_experiment([(12, 3)], reps=1)
    h.update(repr(fingerprint._report_values(report)).encode())
    return h.hexdigest()


def test_fingerprint_script_hashes_a_replication_and_a_report():
    spec = importlib.util.spec_from_file_location("fingerprint_script", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert _digest(fingerprint) == _digest(fingerprint)
