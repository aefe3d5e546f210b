"""Smoke tests of the benchmark harness.

One traced gsw_private image exercises ``true_noise``, the refresh
path and the encrypted-image and score file round trips end to end,
and the harness's own checks (bit-identical to a gate-level clear run,
traced counts equal untraced counts) must all hold.  One untraced
clear_paper image pins the folded NAND count of the paper architecture,
and the layer evaluator's charge of each of its layers adds up to it; a
traced one keeps its per-layer spans' sums.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from gatecnn import cnn, gates
from gatecnn.demo import synthetic_images
from gatecnn.fhe_core import ClearBackend

ROOT = Path(__file__).resolve().parent.parent
CLEAR_PAPER_NANDS = 54_544_952


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
    assert result["metrics"]["fhe_core.nand_calls"]["value"] == 3166


def test_clear_paper_run_pins_the_folded_nand_count():
    result = _run("clear_paper", trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["nand_per_image"]["value"] == CLEAR_PAPER_NANDS


def test_clear_paper_traced_run_keeps_the_layer_sums():
    """A traced clear_paper image: the per-layer spans of a conv + fc
    network with public weights add up to the untraced counts, so no layer
    span nests inside another."""
    result = _run("clear_paper", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_clear_paper_nands_per_layer(preset_net):
    """The whole-layer charge of each preset layer for one encrypted image
    at the certificate's widths: conv1, conv2, fc."""
    backend = ClearBackend(fast_arith=True)
    current = cnn.encrypt_image(synthetic_images(1, 28, 28)[0], preset_net.fmt, backend)
    nands = []
    for i, (layer, certificate) in enumerate(zip(preset_net.layers, preset_net.certificate())):
        before = backend.stats.nand_count
        if layer.kind == cnn.CONVOLUTION:
            current = cnn.conv_layer(current, layer, layer_index=i, certificate=certificate)
        else:
            current = cnn.fc_layer(cnn.flatten_image(current), layer, layer_index=i,
                                   certificate=certificate).scores
        nands.append(backend.stats.nand_count - before)
    assert nands == [20_650_586, 32_641_065, 1_253_301]
    assert sum(nands) == CLEAR_PAPER_NANDS


def test_traced_names_resolve():
    """Every name perfbench's tracer wraps (``GATE_OPS`` on gates,
    ``FIXEDPOINT_OPS`` on cnn, read from perfbench/run.py) is there to
    wrap, so losing one fails here, not only in a traced gsw run."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    ops = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
           if isinstance(node, ast.Assign) and len(node.targets) == 1
           and getattr(node.targets[0], "id", None) in ("GATE_OPS", "FIXEDPOINT_OPS")}
    assert set(ops) == {"GATE_OPS", "FIXEDPOINT_OPS"} and all(ops.values())
    for module, names in ((gates, ops["GATE_OPS"]), (cnn, ops["FIXEDPOINT_OPS"])):
        assert [name for name in names if not callable(getattr(module, name, None))] == []
