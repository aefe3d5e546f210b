import random

import numpy as np
import pytest

from gatecnn import cnn
from gatecnn import fixedpoint as fp
from gatecnn.errors import ParameterError, RangeError, ShapeError
from gatecnn.fhe_core import ClearBackend, GswBackend

FMT = fp.FixedPointFormat(32, 16)


def scores_of(enc_scores):
    return [fp.decode_lanes(s)[0] for s in enc_scores.scores]


def make_conv(cin, cout, k, pool, weights=None, biases=None, act=cnn.RELU, seed=0):
    rng = np.random.default_rng(seed)
    w = weights if weights is not None else rng.normal(0, 0.2, (cout, cin, k, k))
    b = biases if biases is not None else rng.normal(0, 0.05, cout)
    return cnn.LayerSpec(cnn.CONVOLUTION, cin, cout, w, b, act, k, pool)


def make_fc(cin, cout, weights=None, biases=None, act=cnn.LINEAR, seed=1):
    rng = np.random.default_rng(seed)
    w = weights if weights is not None else rng.normal(0, 0.2, (cout, cin))
    b = biases if biases is not None else rng.normal(0, 0.05, cout)
    return cnn.LayerSpec(cnn.FULLY_CONNECTED, cin, cout, w, b, act)


def test_layer_spec_validation():
    with pytest.raises(ShapeError):
        cnn.LayerSpec(cnn.CONVOLUTION, 1, 2, np.zeros((2, 1, 3, 4)), np.zeros(2),
                      cnn.RELU, 3, 1)
    with pytest.raises(ShapeError):
        cnn.LayerSpec(cnn.FULLY_CONNECTED, 4, 2, np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(ParameterError):
        cnn.LayerSpec("pool", 1, 1, np.zeros((1, 1)), np.zeros(1))


def test_network_shape_walk_preset(preset_net):
    # 28 -> 24 -> 12 (layer 1), 12 -> 8 -> 4 (layer 2), 240 -> 10
    l1, l2, l3 = preset_net.layers
    assert (preset_net.input_height - l1.kernel_size + 1) == 24
    assert 24 // l1.pool_size == 12
    assert (12 - l2.kernel_size + 1) == 8
    assert 8 // l2.pool_size == 4
    assert l3.in_channels == 15 * 4 * 4 == 240
    assert preset_net.num_classes == 10


def test_network_shape_errors():
    with pytest.raises(ShapeError):
        cnn.NetworkSpec([make_conv(1, 1, 4, 2)], 6, 6, FMT)  # 3x3 not divisible
    with pytest.raises(ShapeError):
        cnn.NetworkSpec([make_fc(5, 2)], 2, 2, FMT)  # flat size is 4
    with pytest.raises(ShapeError):
        cnn.NetworkSpec([make_conv(1, 1, 3, 1)], 6, 6, FMT)  # must end with fc


def test_flatten_order_bijection():
    order = cnn.flatten_order(15, 4, 4)
    assert order[0] == (0, 0, 0)
    assert order.index((1, 0, 0)) == 1 * 4 * 4
    assert len(order) == 240
    assert len(set(order)) == 240  # bijective
    for flat, (ch, r, c) in enumerate(order):
        assert flat == ch * 16 + r * 4 + c


def test_dot_product_examples():
    backend = ClearBackend()
    x = [fp.encode(0.5, FMT, backend)]
    assert fp.decode(cnn.dot_product(x, [1.0], 0.0)) == 0.5
    xs = [fp.encode(0.5, FMT, backend), fp.encode(-0.5, FMT, backend)]
    assert fp.decode(cnn.dot_product(xs, [1.0, 1.0], 0.25)) == 0.25
    with pytest.raises(ShapeError):
        cnn.dot_product(xs, [1.0], 0.0)


def test_dot_product_dual_oracle():
    """Bit-exact against a plain fixed-point oracle; within the error-
    propagation bound against float64.  60 trials: three weight vectors,
    each against 20 input vectors packed one per lane."""
    rnd = random.Random(11)
    n, lanes = 25, 20
    for trial in range(3):
        ws = [rnd.uniform(-1, 1) for _ in range(n)]
        bias = rnd.uniform(-0.5, 0.5)
        rows = [[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(lanes)]
        backend = ClearBackend(lanes=lanes)
        xs = [fp.encode_lanes([row[i] for row in rows], FMT, backend) for i in range(n)]
        got = cnn.dot_product(xs, ws, bias)

        for lane, xs_vals in enumerate(rows):
            # oracle 1: integer fixed-point semantics
            acc = (int(np.floor(bias * FMT.scale)))
            for v, w in zip(xs_vals, ws):
                zx = int(np.floor(v * FMT.scale))
                zw = int(np.floor(w * FMT.scale))
                acc += (zx * zw) >> 16
            assert fp._lane_values(got)[lane] == acc, (trial, lane)

            # oracle 2: double precision within sqrt(n)*|w| * delta + floors
            exact = float(np.dot(xs_vals, ws) + bias)
            bound = (np.sqrt(n) * np.linalg.norm(ws) + n + 1 + n) / FMT.scale
            assert abs(fp.decode(got, lane=lane) - exact) <= bound


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    pixels = rng.uniform(-1, 1, (1, 5, 5))
    backend = ClearBackend(fast_arith=True)
    img = cnn.encrypt_image(pixels, FMT, backend)
    ident = np.zeros((1, 1, 3, 3))
    ident[0, 0, 1, 1] = 1.0
    spec = make_conv(1, 1, 3, 1, weights=ident, biases=np.zeros(1), act=cnn.LINEAR)
    out = cnn.conv_layer(img, spec)
    for r in range(3):
        for c in range(3):
            assert fp.decode(out.channels[0][r][c]) == fp.decode(img.channels[0][r + 1][c + 1])


def test_conv_shapes():
    rng = np.random.default_rng(4)
    backend = ClearBackend(fast_arith=True)
    img = cnn.encrypt_image(rng.uniform(-1, 1, (1, 28, 28)), FMT, backend)
    out = cnn.conv_layer(img, make_conv(1, 4, 5, 2, seed=5))
    assert (len(out.channels), out.height, out.width) == (4, 12, 12)
    out2 = cnn.conv_layer(out, make_conv(4, 15, 5, 2, seed=6))
    assert (len(out2.channels), out2.height, out2.width) == (15, 4, 4)


def test_fc_layer():
    backend = ClearBackend(fast_arith=True)
    feats = [fp.encode(v, FMT, backend) for v in (0.5, -0.25, 0.125, 0.0)]
    zero = make_fc(4, 3, weights=np.zeros((3, 4)), biases=np.array([0.5, -0.25, 0.0]))
    assert scores_of(cnn.fc_layer(feats, zero)) == [0.5, -0.25, 0.0]

    rnd = random.Random(12)
    vals = [rnd.uniform(-1, 1) for _ in range(8)]
    spec = make_fc(8, 3, seed=13)
    feats = [fp.encode(v, FMT, backend) for v in vals]
    got = cnn.fc_layer(feats, spec)
    for node in range(3):
        acc = int(np.floor(spec.biases[node] * FMT.scale))
        for v, w in zip(vals, spec.weights[node]):
            acc += (int(np.floor(v * FMT.scale)) * int(np.floor(w * FMT.scale))) >> 16
        assert fp._lane_values(got.scores[node])[0] == acc


def test_classify_zero_weights_returns_biases(preset_net):
    biases = np.linspace(-0.4, 0.5, 10)
    net = cnn.NetworkSpec(
        layers=[make_conv(1, 4, 5, 2, weights=np.zeros((4, 1, 5, 5)), biases=np.zeros(4)),
                make_conv(4, 15, 5, 2, weights=np.zeros((15, 4, 5, 5)), biases=np.zeros(15)),
                make_fc(240, 10, weights=np.zeros((10, 240)), biases=biases)],
        input_height=28, input_width=28, fmt=FMT)
    backend = ClearBackend(fast_arith=True)
    img = cnn.encrypt_image(np.random.default_rng(5).uniform(-1, 1, (1, 28, 28)), FMT, backend)
    got = scores_of(cnn.classify(img, net))
    for got_v, want_v in zip(got, biases):
        assert abs(got_v - want_v) <= 1 / FMT.scale


def test_classify_shape_mismatch(preset_net):
    backend = ClearBackend(fast_arith=True)
    img = cnn.encrypt_image(np.zeros((1, 27, 28)), preset_net.fmt, backend)
    with pytest.raises(ShapeError):
        cnn.classify(img, preset_net)


def test_classify_fast_vs_gate_bit_identical(tiny_net):
    rng = np.random.default_rng(6)
    pixels = rng.uniform(-1, 1, (1, 6, 6))
    outputs = {}
    counts = {}
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, backend), tiny_net)
        outputs[fast] = [s.bits.to_int() for s in scores.scores]
        counts[fast] = backend.stats.nand_count
    assert outputs[True] == outputs[False]
    assert counts[True] == counts[False]


def test_classify_argmax_matches_reference(preset_net):
    rng = np.random.default_rng(7)
    pixels = rng.uniform(-1, 1, (1, 28, 28))
    backend = ClearBackend(fast_arith=True)
    scores = scores_of(cnn.classify(cnn.encrypt_image(pixels, preset_net.fmt, backend),
                                    preset_net))
    ref = cnn.reference_classify(pixels, preset_net)
    assert cnn.argmax(scores) == cnn.argmax(ref)


def test_encrypt_weights_equivalence_clear():
    rnd = random.Random(14)
    backend = ClearBackend()
    small = fp.FixedPointFormat(8, 4)
    vals = [rnd.uniform(-1, 1) for _ in range(5)]
    ws = [rnd.uniform(-1, 1) for _ in range(5)]
    xs1 = [fp.encode(v, small, backend) for v in vals]
    public = cnn.dot_product(xs1, ws, 0.125, encrypt_weights=False)
    xs2 = [fp.encode(v, small, backend) for v in vals]
    private = cnn.dot_product(xs2, ws, 0.125, encrypt_weights=True)
    assert public.bits.to_int() == private.bits.to_int()


def test_encrypt_weights_equivalence_classify(tiny_net):
    rng = np.random.default_rng(16)
    pixels = rng.uniform(-1, 1, (1, 6, 6))
    results = []
    for encrypt_weights in (False, True):
        backend = ClearBackend()  # gate level: the layer evaluator has no weight entry
        scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, backend),
                              tiny_net, encrypt_weights=encrypt_weights)
        results.append([s.bits.to_int() for s in scores.scores])
    assert results[0] == results[1]


def test_encrypt_weights_equivalence_gsw(toy_params, toy_key):
    rnd = random.Random(15)
    small = fp.FixedPointFormat(8, 4)
    vals = [rnd.uniform(-1, 1) for _ in range(3)]
    ws = [rnd.uniform(-1, 1) for _ in range(3)]
    results = []
    for encrypt_weights in (False, True):
        backend = GswBackend(toy_params, key=toy_key, seed=40, auto_refresh=True)
        xs = [fp.encode(v, small, backend) for v in vals]
        out = cnn.dot_product(xs, ws, 0.0625, encrypt_weights=encrypt_weights)
        results.append(out.bits.to_int())
    assert results[0] == results[1]


def test_workers_bit_identical(tiny_net):
    rng = np.random.default_rng(8)
    pixels = rng.uniform(-1, 1, (1, 6, 6))
    results = []
    for workers in (1, 4):
        backend = ClearBackend()  # gate level: the layer evaluator runs no threads
        scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, backend),
                              tiny_net, workers=workers)
        results.append([s.bits.to_int() for s in scores.scores])
    assert results[0] == results[1]


@pytest.mark.parametrize("seed, conv_act, fc_act, lanes", [
    (0, cnn.RELU, cnn.RELU, 1),
    (1, cnn.LINEAR, cnn.RELU, 1),
    (2, cnn.RELU, cnn.LINEAR, 3),
])
def test_layer_evaluator_matches_gate_path(fast_vs_gate, seed, conv_act, fc_act, lanes):
    """Two-channel 5x3 input, a three-map conv with pool 2, then fc -> fc."""
    rng = np.random.default_rng(seed)
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.CONVOLUTION, 2, 3, rng.normal(0, 0.5, (3, 2, 2, 2)),
                       rng.normal(0, 0.2, 3), conv_act, kernel_size=2, pool_size=2),
         make_fc(6, 3, act=fc_act, seed=seed),
         make_fc(3, 2, seed=seed + 1)],
        input_height=5, input_width=3, fmt=fp.FixedPointFormat(10, 5), input_channels=2)
    fast, gate = fast_vs_gate(net, rng.uniform(-1, 1, (lanes, 2, 5, 3)))
    assert fast == gate


def test_layer_evaluator_wide_format(fast_vs_gate):
    """w=40: in-range products reach 2^68, past int64, so the evaluator
    runs on Python integers."""
    fmt = fp.FixedPointFormat(40, 30)
    assert fp.int_dtype(fmt) is object
    rng = np.random.default_rng(40)
    net = cnn.NetworkSpec(
        [make_fc(2, 3, weights=rng.uniform(-12, 12, (3, 2)), act=cnn.RELU),
         make_fc(3, 2, weights=rng.uniform(-0.3, 0.3, (2, 3)))],
        input_height=1, input_width=2, fmt=fmt)
    fast, gate = fast_vs_gate(net, rng.uniform(-20, 20, (2, 1, 1, 2)))
    assert fast == gate


def test_layer_evaluator_rejects_unencodable_weight():
    spec = make_fc(2, 1, weights=np.array([[0.5, 100.0]]))
    small = fp.FixedPointFormat(10, 5)
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        feats = [fp.encode(0.5, small, backend) for _ in range(2)]
        with pytest.raises(RangeError):
            cnn.fc_layer(feats, spec)


def test_argmax_tie_rule():
    assert cnn.argmax([0.1, 0.9, 0.3]) == 1
    assert cnn.argmax([0.2, 0.7, 0.7]) == 1
    assert cnn.argmax([0.5, 0.2, 0.5, 0.5]) == 0
    scores = [0.0] * 10
    scores[2] = scores[7] = 0.9  # tied maxima at 2 and 7 -> lowest index
    assert cnn.argmax(scores) == 2


def test_classify_gate_trace_depends_only_on_shape(tiny_net):
    rng = np.random.default_rng(21)
    counts = []
    for _ in range(2):
        backend = ClearBackend()  # gate-level
        pixels = rng.uniform(-1, 1, (1, 6, 6))
        cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, backend), tiny_net)
        counts.append(backend.stats.nand_count)
    assert counts[0] == counts[1]


def test_two_fc_layer_network():
    rng = np.random.default_rng(19)
    net = cnn.NetworkSpec(
        layers=[
            cnn.LayerSpec(cnn.FULLY_CONNECTED, 4, 5, rng.normal(0, 0.3, (5, 4)),
                          rng.normal(0, 0.1, 5), cnn.RELU),
            cnn.LayerSpec(cnn.FULLY_CONNECTED, 5, 3, rng.normal(0, 0.3, (3, 5)),
                          rng.normal(0, 0.1, 3), cnn.LINEAR),
        ],
        input_height=2, input_width=2, fmt=FMT)
    pixels = rng.uniform(-1, 1, (1, 2, 2))
    backend = ClearBackend(fast_arith=True)
    got = scores_of(cnn.classify(cnn.encrypt_image(pixels, FMT, backend), net))
    want = cnn.reference_classify(pixels, net)
    assert np.max(np.abs(np.array(got) - want)) < 1e-3
    assert cnn.argmax(got) == cnn.argmax(want)


def test_reference_classify_matches_numpy_composition(preset_net):
    rng = np.random.default_rng(9)
    pixels = rng.uniform(-1, 1, (1, 28, 28))
    scores = cnn.reference_classify(pixels, preset_net)
    assert scores.shape == (10,)
    l1, l2, l3 = preset_net.layers
    x = pixels
    for layer in (l1, l2):
        k = layer.kernel_size
        h = x.shape[1] - k + 1
        conv = np.zeros((layer.out_channels, h, h))
        for oc in range(layer.out_channels):
            for r in range(h):
                for c in range(h):
                    conv[oc, r, c] = np.sum(x[:, r:r + k, c:c + k] * layer.weights[oc]) + layer.biases[oc]
        conv = np.maximum(conv, 0)
        pooled = conv.reshape(layer.out_channels, h // 2, 2, h // 2, 2).max(axis=(2, 4))
        x = pooled
    manual = l3.weights @ x.reshape(-1) + l3.biases
    assert np.allclose(scores, manual)
