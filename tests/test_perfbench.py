"""Smoke tests of the benchmark harness.

One traced gsw_private image exercises ``true_noise``, the refresh
path and the encrypted-image and score file round trips end to end,
and the harness's own checks (bit-identical to a gate-level clear run,
traced counts equal untraced counts) must all hold.  One untraced
clear_paper image pins the folded NAND count of the paper architecture.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "INVARIANT VIOLATED" not in proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gsw_private_traced_run_is_correct():
    result = _run("gsw_private", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["fhe_core.nand_calls"]["value"] == 7896


def test_clear_paper_run_pins_the_folded_nand_count():
    result = _run("clear_paper", trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["nand_per_image"]["value"] == 69_586_326
