"""Smoke test of the benchmark harness on the encrypted workload.

One traced gsw_private image exercises ``true_noise``, the refresh
path and the encrypted-image and score file round trips end to end,
and the harness's own checks (bit-identical to a gate-level clear run,
traced counts equal untraced counts) must all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gsw_private_traced_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gsw_private",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "INVARIANT VIOLATED" not in proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["fhe_core.nand_calls"]["value"] == 7896
