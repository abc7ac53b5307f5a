"""Each demo script runs to completion against the installed package API, and
prints exactly the output it printed when its digest was recorded.

Demos 02 and 04 print `run_trial`, `sample_flash_pair` and `run_flash_process`
results that no CLI report digest covers, so these digests pin them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_chsh_violation.py": "4f1318bc8a70baaa0d4be51ee2a0fd8654476be044426a65a2f2761ca65fd7ed",
    "02_chronology_split.py": "7c51a285700bb593dfe4e70632639aead3ea1f31e6492e5d8cbc9917048c27df",
    "03_ordering_nogo.py": "a617eb9e88bed913399818ec9c209e830b6e4638a8a81ab3f27bc3786b95a01d",
    "04_flash_process.py": "62c080b1d16b0550abb78200a1c519701b410c8bb27a8b91bd047289e6b1b982",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
