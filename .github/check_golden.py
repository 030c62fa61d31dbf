"""Check a stock ``ampc`` run directory against the frozen figures in
tests/test_acceptance.py at rel 1e-9, with the standard library alone.

Usage: python3 .github/check_golden.py RUN_DIR   (exits 1 on a mismatch)
"""

import ast
import csv
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
golden = next(
    {k.arg: ast.literal_eval(k.value) for k in node.value.keywords}
    for node in tree.body
    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "AMPC_GOLDEN"
)
run = Path(sys.argv[1])
with open(run / "trace.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
got = {**json.loads((run / "summary.json").read_text()),
       "rows": len(rows), "end_time": float(rows[-1]["time_s"])}
bad = [f"{key}: {got[key]!r} != {want!r}" for key, want in golden.items()
       if not math.isclose(got[key], want, rel_tol=1e-9)]
print("\n".join(bad) or f"stock ampc matches its {len(golden)} golden figures at rel 1e-9")
sys.exit(1 if bad else 0)
