import math

import numpy as np
import pytest

from gatecnn import cnn, error_analysis
from gatecnn.demo import synthetic_images
from gatecnn.fhe_core import ClearBackend
from gatecnn.fixedpoint import FixedPointFormat, decode_lanes

FMT = FixedPointFormat(32, 16)


def conv_spec(cin, cout, k, pool=1, scale=0.2, seed=0, act=cnn.RELU):
    rng = np.random.default_rng(seed)
    return cnn.LayerSpec(cnn.CONVOLUTION, cin, cout,
                         rng.normal(0, scale, (cout, cin, k, k)),
                         rng.normal(0, 0.05, cout), act, k, pool)


def fc_spec(cin, cout, scale=0.2, seed=1, act=cnn.LINEAR):
    rng = np.random.default_rng(seed)
    return cnn.LayerSpec(cnn.FULLY_CONNECTED, cin, cout,
                         rng.normal(0, scale, (cout, cin)),
                         rng.normal(0, 0.05, cout), act)


def test_layer_factors_single_channel_conv():
    lf = error_analysis.layer_factors(conv_spec(1, 3, 5))
    assert lf.r_i == 5.0
    assert lf.s == 25
    assert lf.fan_in == 25


def test_layer_factors_multichannel_conv_keeps_kernel_r():
    lf = error_analysis.layer_factors(conv_spec(4, 15, 5))
    assert lf.r_i == 5.0          # window side only; channels excluded
    assert lf.fan_in == 100       # true dot length, used by the slack term


def test_layer_factors_fc():
    lf = error_analysis.layer_factors(fc_spec(240, 10))
    assert lf.r_i == pytest.approx(math.sqrt(240))
    assert lf.s == lf.fan_in == 240


def test_layer_factors_identity_layer():
    spec = cnn.LayerSpec(cnn.FULLY_CONNECTED, 1, 1, np.array([[1.0]]),
                         np.zeros(1), cnn.LINEAR)
    lf = error_analysis.layer_factors(spec)
    assert lf.d_i == 1.0
    assert lf.r_i == 1.0


def test_layer_factors_euclidean_vs_sum_variant():
    spec = cnn.LayerSpec(cnn.FULLY_CONNECTED, 2, 1, np.array([[3.0, 4.0]]),
                         np.zeros(1), cnn.LINEAR)
    lf = error_analysis.layer_factors(spec)
    assert lf.d_i == 5.0       # sqrt(3^2 + 4^2), the proof's magnitude
    assert lf.d_i_sum == 7.0   # the prose variant, reported for comparison


def test_bound_single_identity_layer():
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.FULLY_CONNECTED, 1, 1, np.array([[1.0]]),
                       np.zeros(1), cnn.LINEAR)],
        1, 1, FMT)
    report = error_analysis.theorem_bound(net)
    assert report.total_bound == pytest.approx(2.0 ** -16)


def test_preset_r_product(preset_net):
    report = error_analysis.theorem_bound(preset_net)
    assert report.r_product == pytest.approx(25 * math.sqrt(240), rel=1e-12)


def test_bound_matches_hand_computation():
    l1 = conv_spec(1, 2, 3, pool=1, seed=7)
    l2 = fc_spec(2 * 4 * 4, 3, seed=8)
    net = cnn.NetworkSpec([l1, l2], 6, 6, FMT)
    report = error_analysis.theorem_bound(net)
    d1 = max(np.linalg.norm(l1.weights[i].ravel()) for i in range(2))
    d2 = max(np.linalg.norm(l2.weights[i]) for i in range(3))
    by_hand = (1 / 65536) * (3 * d1) * (math.sqrt(32) * d2)
    assert report.total_bound == pytest.approx(by_hand, rel=1e-12)
    # internal consistency: the report's product re-derives its total
    product = report.initial_delta
    for lf in report.factors:
        product *= lf.r_i * lf.d_i
    assert product == pytest.approx(report.total_bound, rel=1e-12)


def test_bound_linear_in_delta():
    layers = [conv_spec(1, 1, 3, seed=9), fc_spec(16, 2, seed=10)]
    net16 = cnn.NetworkSpec(layers, 6, 6, FixedPointFormat(32, 16))
    net15 = cnn.NetworkSpec(layers, 6, 6, FixedPointFormat(32, 15))
    b16 = error_analysis.theorem_bound(net16).total_bound
    b15 = error_analysis.theorem_bound(net15).total_bound
    assert b15 == pytest.approx(2 * b16, rel=1e-12)


def test_activation_and_pool_contribute_no_factor():
    rng = np.random.default_rng(11)
    w = rng.normal(0, 0.2, (2, 1, 3, 3))
    b = rng.normal(0, 0.05, 2)
    variants = []
    for act, pool in ((cnn.RELU, 2), (cnn.LINEAR, 2), (cnn.RELU, 1), (cnn.LINEAR, 1)):
        conv = cnn.LayerSpec(cnn.CONVOLUTION, 1, 2, w, b, act, 3, pool)
        side = (8 - 3 + 1) // pool
        net = cnn.NetworkSpec([conv, fc_spec(2 * side * side, 2, seed=12)], 8, 8, FMT)
        variants.append(error_analysis.theorem_bound(net).factors[0])
    assert len({(lf.r_i, lf.d_i) for lf in variants}) == 1


def test_empirical_zero_weight_network():
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.FULLY_CONNECTED, 4, 2, np.zeros((2, 4)),
                       np.array([0.5, -0.5]), cnn.LINEAR)],
        2, 2, FMT)
    images = [np.zeros((1, 2, 2)), np.full((1, 2, 2), 0.25)]
    report = error_analysis.empirical_error(net, images)
    assert report.images_checked == 2
    assert report.empirical_max_error == 0.0
    assert report.bound_violations == 0


def test_empirical_tiny_network_within_bounds(tiny_net):
    images = [img[:, :6, :6] for img in synthetic_images(5, 6, 6, seed=31)]
    report = error_analysis.empirical_error(tiny_net, images)
    assert report.scores_checked == 10
    assert report.empirical_max_error <= report.bound_with_slack
    assert report.slack_violations == 0


def test_empirical_error_keeps_each_image_classes_and_errors(tiny_net):
    images = [img[:, :6, :6] for img in synthetic_images(3, 6, 6, seed=47)]
    report = error_analysis.empirical_error(tiny_net, iter(images))
    assert len(report.classes) == len(report.errors) == report.images_checked == 3
    assert max(e.max() for e in report.errors) == report.empirical_max_error
    for pixels, (fixed, ref), errors in zip(images, report.classes, report.errors):
        backend = ClearBackend()  # gate level: independent of the layer evaluator
        scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, backend), tiny_net)
        got = np.array([decode_lanes(s)[0] for s in scores.scores])
        want = cnn.reference_classify(pixels, tiny_net)
        assert (fixed, ref) == (cnn.argmax(got), cnn.argmax(want))
        np.testing.assert_array_equal(errors, np.abs(got - want))


def test_report_flags_violations():
    report = error_analysis.ErrorBoundReport(
        initial_delta=1e-5, factors=[], total_bound=1e-4,
        total_bound_sum_variant=1e-3, rescaling_slack=1e-4, r_product=1.0)
    errors = np.array([5e-5, 3e-4])
    report.bound_violations = int((errors > report.total_bound).sum())
    report.slack_violations = int((errors > report.bound_with_slack).sum())
    assert report.bound_violations == 1
    assert report.slack_violations == 1
