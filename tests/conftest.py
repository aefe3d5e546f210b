import numpy as np
import pytest

from gatecnn.cnn import EncImage, argmax, classify, encrypt_image, reference_classify
from gatecnn.demo import preset_model, synthetic_images, tiny_model
from gatecnn.error_analysis import theorem_bound
from gatecnn.fhe_core import ClearBackend, GswBackend, keygen, preset_params
from gatecnn.fixedpoint import _lane_values, decode_lanes, encode_lanes


@pytest.fixture(scope="session")
def toy_params():
    return preset_params("toy")


@pytest.fixture(scope="session")
def toy_key(toy_params):
    return keygen(toy_params, 1)


@pytest.fixture()
def gsw_backend(toy_params, toy_key):
    return GswBackend(toy_params, key=toy_key, seed=7, auto_refresh=True)


@pytest.fixture(scope="session")
def preset_net():
    return preset_model()


@pytest.fixture(scope="session")
def demo_images():
    return synthetic_images(20, 28, 28)


@pytest.fixture(scope="session")
def tiny_net():
    return tiny_model()


@pytest.fixture(scope="session")
def verify_run(preset_net, demo_images):
    """One shared 20-image fixed-point-vs-float run (the expensive part of
    the acceptance suite); returns (populated report, argmax pairs)."""
    matches = []
    per_image_errors = []
    for pixels in demo_images:
        backend = ClearBackend(fast_arith=True)
        scores = classify(encrypt_image(pixels, preset_net.fmt, backend), preset_net)
        got = np.array([decode_lanes(s)[0] for s in scores.scores])
        want = reference_classify(pixels, preset_net)
        matches.append((argmax(got), argmax(want)))
        per_image_errors.append(np.abs(got - want))
    report = theorem_bound(preset_net)
    stacked = np.concatenate(per_image_errors)
    report.images_checked = len(per_image_errors)
    report.scores_checked = int(stacked.size)
    report.empirical_max_error = float(stacked.max())
    report.empirical_mean = float(stacked.mean())
    report.empirical_std = float(stacked.std())
    report.bound_violations = int((stacked > report.total_bound).sum())
    report.slack_violations = int((stacked > report.bound_with_slack).sum())
    return report, matches


@pytest.fixture(scope="session")
def fast_vs_gate():
    """Classify a stack of (c, h, w) images, one per clear lane, on the
    whole-layer evaluator and gate by gate; returns the (per-class lane
    integers, NAND count) pair of each."""
    def run(net, images):
        stack = np.asarray(images, dtype=np.float64)
        _, c, h, w = stack.shape
        out = []
        for fast in (True, False):
            backend = ClearBackend(lanes=len(stack), fast_arith=fast)
            img = EncImage([[[encode_lanes(stack[:, ch, r, col], net.fmt, backend)
                              for col in range(w)] for r in range(h)] for ch in range(c)],
                           h, w)
            scores = classify(img, net)
            out.append(([_lane_values(s) for s in scores.scores], backend.stats.nand_count))
        return out
    return run
