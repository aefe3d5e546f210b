import numpy as np
import pytest

from gatecnn.cnn import EncImage, classify
from gatecnn.demo import preset_model, synthetic_images, tiny_model
from gatecnn.error_analysis import empirical_error
from gatecnn.fhe_core import ClearBackend, GswBackend, keygen, preset_params
from gatecnn.fixedpoint import _lane_values, encode_lanes


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
    report = empirical_error(preset_net, demo_images)
    return report, report.classes


@pytest.fixture(scope="session")
def fast_vs_gate():
    """Classify a stack of (c, h, w) images, one per clear lane, on the
    whole-layer evaluator and gate by gate; returns the (per-class lane
    integers, NAND count) pair of each."""
    def run(net, images, encrypt_weights=False):
        stack = np.asarray(images, dtype=np.float64)
        _, c, h, w = stack.shape
        out = []
        for fast in (True, False):
            backend = ClearBackend(lanes=len(stack), fast_arith=fast)
            img = EncImage([[[encode_lanes(stack[:, ch, r, col], net.fmt, backend)
                              for col in range(w)] for r in range(h)] for ch in range(c)],
                           h, w)
            scores = classify(img, net, encrypt_weights=encrypt_weights)
            out.append(([_lane_values(s) for s in scores.scores], backend.stats.nand_count))
        return out
    return run
