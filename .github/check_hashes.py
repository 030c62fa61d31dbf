"""Run the short runs of tests/run_hashes.json with the ``cellbal`` this interpreter
imports and check each run's trace.csv and summary.json against the committed sha256,
with the standard library alone.  The runs write the same bytes on every Python that
pyproject.toml allows: every float sum in the package is a left fold.

Usage: python3 .github/check_hashes.py   (exits 1 on a mismatch)
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
runs = json.loads((ROOT / "tests" / "run_hashes.json").read_text())
bad = []
with tempfile.TemporaryDirectory() as tmp:
    for name, run in runs.items():
        out = Path(tmp) / name
        sets = [arg for override in run["set"] for arg in ("--set", override)]
        subprocess.run([sys.executable, "-m", "cellbal.cli", "simulate", *sets, "--out", str(out)],
                       check=True, stdout=subprocess.DEVNULL)
        for file, want in run["sha256"].items():
            got = hashlib.sha256((out / file).read_bytes()).hexdigest()
            if got != want:
                bad.append(f"{name}/{file}: sha256 {got} != {want}")
print("\n".join(bad) or f"{len(runs)} runs match their committed sha256 on Python "
      f"{sys.version.split()[0]}")
sys.exit(1 if bad else 0)
