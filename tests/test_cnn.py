import dataclasses
import random
from contextlib import contextmanager

import numpy as np
import pytest

from gatecnn import cnn, demo, model_io
from gatecnn import fixedpoint as fp
from gatecnn import gates as g
from gatecnn.errors import (OverflowDiagnostic, ParameterError, RangeError,
                            ShapeError)
from gatecnn.fhe_core import ClearBackend, FoldProbe, GswBackend

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


def dot_product(xs, ws, bias, encrypt_weights=False):
    """``bias`` plus the products of ``xs`` with ``ws``: the score of an fc
    layer with one output node, run without a certificate, so added in
    the w-bit left chain."""
    spec = make_fc(len(ws), 1, weights=np.array([ws], dtype=np.float64), biases=np.array([bias]))
    return cnn.fc_layer(xs, spec, encrypt_weights).scores[0]


def test_dot_product_examples():
    backend = ClearBackend()
    x = [fp.encode(0.5, FMT, backend)]
    assert fp.decode(dot_product(x, [1.0], 0.0)) == 0.5
    xs = [fp.encode(0.5, FMT, backend), fp.encode(-0.5, FMT, backend)]
    assert fp.decode(dot_product(xs, [1.0, 1.0], 0.25)) == 0.25
    with pytest.raises(ShapeError):
        dot_product(xs, [1.0], 0.0)


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
        got = dot_product(xs, ws, bias)

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
    public = dot_product(xs1, ws, 0.125, encrypt_weights=False)
    xs2 = [fp.encode(v, small, backend) for v in vals]
    private = dot_product(xs2, ws, 0.125, encrypt_weights=True)
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
        out = dot_product(xs, ws, 0.0625, encrypt_weights=encrypt_weights)
        results.append(out.bits.to_int())
    assert results[0] == results[1]


@pytest.mark.parametrize("encrypt_weights", [False, True])
def test_classify_enters_each_seed_scope_once(toy_params, toy_key, tiny_net, encrypt_weights):
    """One classify of the tiny model (one output channel, a pooled conv,
    then fc) on the toy preset enters no seed scope id tuple twice (a
    re-entered scope would replay its randomness); with one output
    channel a product scope (layer, input row) and a pool-block scope
    (layer, block) would both be (0, 2) without their kind.  classify
    encrypts each weight and bias once, not once per window that reads it
    (2,040 bits), and only the low bits of its layer's ``bit_widths``
    that the circuits read: 116 bits of 20 12-bit words (240)."""
    backend = GswBackend(toy_params, key=toy_key, seed=3, auto_refresh=True)
    entered, scope = [], backend.seed_scope

    @contextmanager
    def recording(*ids):
        entered.append(ids)
        with scope(*ids):
            yield

    backend.seed_scope = recording
    img = cnn.encrypt_image(demo.synthetic_images(1, 6, 6, seed=5)[0], tiny_net.fmt, backend)
    encrypted, encrypt_bit = [], backend.encrypt_bit
    backend.encrypt_bit = lambda bit: encrypted.append(bit) or encrypt_bit(bit)
    cnn.classify(img, tiny_net, encrypt_weights)
    assert entered and len(set(entered)) == len(entered)
    fmt = tiny_net.fmt
    narrow = sum(layer.weights.size * layer.bit_widths(fmt)[0]
                 + layer.biases.size * layer.bit_widths(fmt)[1] for layer in tiny_net.layers)
    assert (narrow, len(encrypted)) == (116, 116 if encrypt_weights else 0)


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
    """w=40: inputs in [-1, 1] times first-layer weights up to 200 give
    in-range products past 2^63 on the scaled integers, past int64, so
    the evaluator runs on Python integers."""
    fmt = fp.FixedPointFormat(40, 30)
    assert fp.int_dtype(fmt) is object
    rng = np.random.default_rng(40)
    net = cnn.NetworkSpec(
        [make_fc(2, 3, weights=rng.uniform(-200, 200, (3, 2)), act=cnn.RELU),
         make_fc(3, 2, weights=rng.uniform(-0.3, 0.3, (2, 3)))],
        input_height=1, input_width=2, fmt=fmt)
    images = np.concatenate([[[[[1.0, -1.0]]]], rng.uniform(-1, 1, (1, 1, 1, 2))])
    weights = net.layers[0].scaled(fmt)[0]
    assert max(abs(fp.float_to_scaled(x, fmt) * int(z))
               for x in images.ravel() for z in weights.ravel()) > 2 ** 63
    fast, gate = fast_vs_gate(net, images)
    assert fast == gate


def _folding_net():
    """Public weights that fold: conv map 0 is all zeros, so its outputs are
    public constants; map 1 has a zero and even power-of-two weights, so its
    outputs keep a public low bit; map 2 has a tiny negative weight that
    floors to -1.  Every ReLU output's sign bit is the public constant 0.
    The fc layers read those partly public inputs, and the first has an
    all-zero row, whose output is public too."""
    conv_w = np.array([[[[0.0, 0.0], [0.0, 0.0]]],
                       [[[2.0, 0.0], [-2.0, 4.0]]],
                       [[[-1e-3, 0.5], [0.75, -0.25]]]])
    fc_w = np.array([[0.5, -1.0, 0.25, 0.5, -0.5, 0.125],
                     [0.0] * 6,
                     [-1e-3, 1.0, 0.0, -0.25, 0.5, 1.5]])
    return cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.CONVOLUTION, 1, 3, conv_w, np.array([0.5, 2.0, -0.125]),
                       cnn.RELU, kernel_size=2, pool_size=2),
         make_fc(6, 3, weights=fc_w, biases=np.array([0.25, -0.5, 0.0]), act=cnn.RELU),
         make_fc(3, 2, weights=np.array([[1.0, 0.0, -0.5], [0.25, 2.0, 0.0]]))],
        input_height=5, input_width=3, fmt=fp.FixedPointFormat(10, 5))


@pytest.mark.parametrize("encrypt_weights", [False, True])
def test_layer_evaluator_matches_gate_path_with_folds(fast_vs_gate, encrypt_weights):
    images = np.random.default_rng(6).uniform(-0.5, 0.5, (3, 1, 5, 3))
    fast, gate = fast_vs_gate(_folding_net(), images, encrypt_weights=encrypt_weights)
    assert fast == gate


def test_public_weights_fold_on_both_evaluators(fast_vs_gate):
    net = _folding_net()
    images = np.random.default_rng(7).uniform(-0.5, 0.5, (1, 1, 5, 3))
    (public_scores, public_nands), _ = fast_vs_gate(net, images)
    (private_scores, private_nands), _ = fast_vs_gate(net, images, encrypt_weights=True)
    assert public_scores == private_scores
    assert public_nands < private_nands
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        out = cnn.conv_layer(cnn.encrypt_image(images[0], net.fmt, backend), net.layers[0])
        patterns = [{fp.public_pattern(v) for row in grid for v in row} for grid in out.channels]
        assert patterns == [{(2 ** 10 - 1, 16)}, {(2 ** 9 + 1, 0)}, {(2 ** 9, 0)}]


EDGE_HEAVY_KERNEL = np.array([[0.5, -0.25, 0.0, 0.375, 0.5],
                              [-1.0, 0.375, 0.125, -0.5, 0.0],
                              [0.625, 0.0, -0.375, 0.375, 1.0],
                              [-0.125, 0.25, -0.625, 0.0, 0.5],
                              [0.75, -0.375, 0.25, -0.125, 0.875]])


def _edge_heavy_net(kernels=None, biases=(-0.125,), act=cnn.LINEAR):
    """conv2's shape at w=8, f=3: 5x5 kernels over a 12x12 input, whose
    pixels meet every entry set from one corner entry to all 25.  A 1x1
    layer first makes a private map (weight 1; its ReLU's sign bit is a
    public 0) and a partly public one (weight 2: its low bit is a public
    0 too); the default 5x5 kernels (one output channel) have repeated,
    zero and ±power-of-two weights."""
    if kernels is None:
        kernels = np.stack([EDGE_HEAVY_KERNEL, -EDGE_HEAVY_KERNEL[::-1]])[None]
    out = len(kernels)
    return cnn.NetworkSpec(
        [make_conv(1, 2, 1, 1, weights=np.array([[[[1.0]]], [[[2.0]]]]),
                   biases=np.array([0.25, 0.5])),
         make_conv(2, out, 5, 2, weights=kernels, biases=np.array(biases), act=act),
         make_fc(16 * out, 2, seed=3)],
        input_height=12, input_width=12, fmt=fp.FixedPointFormat(8, 3))


def _cross_channel_net():
    """_edge_heavy_net with three output channels, so one input channel's
    adder graph serves several kernels: channel 1 repeats channel 0's
    kernel on the private map and negates it on the partly public one,
    and channel 2's kernels hold only zeros and ±powers of two."""
    kernel, other = EDGE_HEAVY_KERNEL, -EDGE_HEAVY_KERNEL[::-1]
    powers = np.array([[0.0, 0.5, -0.25, 1.0, 0.0],
                       [-1.0, 0.0, 0.125, 0.0, 0.25],
                       [0.5, -0.125, 0.0, -0.5, 1.0],
                       [0.0, 0.25, -1.0, 0.0, -0.125],
                       [0.125, 0.0, 0.5, -0.25, 0.0]])
    return _edge_heavy_net(np.stack([[kernel, other], [kernel, -other], [powers, -powers.T]]),
                           biases=(-0.125, 0.25, 0.125), act=cnn.RELU)


@pytest.mark.parametrize("encrypt_weights", [False, True])
def test_layer_evaluator_matches_gate_path_5x5(fast_vs_gate, encrypt_weights):
    images = np.random.default_rng(11).uniform(-0.5, 0.5, (2, 1, 12, 12))
    fast, gate = fast_vs_gate(_edge_heavy_net(), images, encrypt_weights=encrypt_weights)
    assert fast == gate


def _layer_by_layer(net, pixels, encrypt_weights=False, certified=False):
    """Per conv layer of an _edge_heavy_net, on the whole-layer evaluator
    and gate by gate: each output's (value, public_pattern) and the
    layer's NANDs.  The 1x1 layer's weights stay public, so the 5x5 layer
    reads a private and a partly public map; ``encrypt_weights`` applies
    to the 5x5 layer.  ``certified`` builds each layer to the network's
    certificate widths, else w bits wide."""
    runs = []
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        img = cnn.encrypt_image(pixels, net.fmt, backend)
        layers = []
        for i, layer in enumerate(net.layers[:2]):
            before = backend.stats.nand_count
            img = cnn.conv_layer(img, layer, encrypt_weights=encrypt_weights and i == 1,
                                 certificate=net.certificate()[i] if certified else None)
            layers.append(([[[(fp._lane_values(v)[0], fp.public_pattern(v)) for v in row]
                             for row in grid] for grid in img.channels],
                           backend.stats.nand_count - before))
        runs.append(layers)
    return runs


def test_layer_evaluator_matches_gate_path_5x5_patterns():
    """Layer by layer on one image: the same values, NANDs and output
    public_patterns.  The 1x1 layer's maps are private but for the
    ReLU's sign bit, a public 0, and map 1's public low bit."""
    pixels = np.random.default_rng(13).uniform(-0.5, 0.5, (12, 12))
    fast, gate = _layer_by_layer(_edge_heavy_net(), pixels)
    assert fast == gate
    maps = fast[0][0]
    assert {p for _, p in maps[0][0]} == {(128, 0)} and {p for _, p in maps[1][0]} == {(129, 0)}


def test_layer_evaluator_matches_gate_path_5x5_patterns_certified():
    """The same at the certificate's widths (5x5 layer: 6-bit inputs of
    w=8), for fewer NANDs than at w bits.  The 1x1 layer's roots, and so
    its ReLUs, are 5 and 6 bits wide, so its maps' bits from 4 and 5 up
    are public zeros."""
    net = _edge_heavy_net()
    assert net.certificate()[1].input_bits == 6
    assert net.certificate()[0].root_bits.tolist() == [5, 6]
    pixels = np.random.default_rng(13).uniform(-0.5, 0.5, (12, 12))
    fast, gate = _layer_by_layer(net, pixels, certified=True)
    assert fast == gate
    maps = fast[0][0]
    assert {p for _, p in maps[0][0]} == {(240, 0)} and {p for _, p in maps[1][0]} == {(225, 0)}
    wide = _layer_by_layer(net, pixels)[0]
    assert all(narrow[1] < full[1] for narrow, full in zip(fast, wide))


@pytest.mark.parametrize("encrypt_weights", [False, True])
def test_layer_evaluator_matches_gate_path_across_channels(encrypt_weights):
    """Three output channels over the private and the partly public map,
    with a repeated, a negated and a power-of-two kernel: layer by layer,
    the same values, NANDs and output public_patterns."""
    pixels = np.random.default_rng(17).uniform(-0.5, 0.5, (12, 12))
    fast, gate = _layer_by_layer(_cross_channel_net(), pixels, encrypt_weights)
    assert fast == gate
    maps = fast[0][0]
    assert {p for _, p in maps[0][0]} == {(128, 0)} and {p for _, p in maps[1][0]} == {(129, 0)}
    assert len(fast[1][0]) == 3 and fast[1][1] > 0


def test_kernel_constants_follow_the_entry_order():
    """A pixel's plan constants are its input channel's kernel entries
    oc·k² + kr·k + kc of its entry set, over every output channel's
    kernel in (oc, kr, kc) order; a layer with the same weights gives the
    same constants, so it plans the same graphs."""
    for net in (_edge_heavy_net(), _cross_channel_net()):
        conv = net.layers[1]
        fresh = make_conv(2, conv.out_channels, 5, 2, weights=conv.weights, biases=conv.biases)
        sets = {e for row in cnn._kernel_entries(conv, 12, 12) for e in row}
        assert len(sets) == 81
        for ic in range(2):
            every = tuple(int(z) for z in conv.weights[:, ic].ravel() * 8)
            assert conv.kernel_constants(net.fmt, ic, range(len(every))) == every
            for entries in sets:
                ks = conv.kernel_constants(net.fmt, ic, entries)
                assert ks == tuple(every[e] for e in entries)
                assert g.const_mul_plan(fresh.kernel_constants(net.fmt, ic, entries), 8, 3, 11) \
                    == g.const_mul_plan(ks, 8, 3, 11)


def _count_plans(monkeypatch) -> list:
    """A list that grows by one per adder-graph plan made."""
    made, plan = [], g.const_mul_plan
    monkeypatch.setattr(g, "const_mul_plan", lambda *args: made.append(args) or plan(*args))
    return made


def _entry_plans(net) -> int:
    """The (layer, input channel, entry set) triples of a network's
    public-weight multiplies: the plans one classify of a private image
    makes."""
    count, side = 0, net.input_height
    for layer in net.layers:
        side = 1 if layer.kind == cnn.FULLY_CONNECTED else side
        count += layer.in_channels * len({e for row in cnn._kernel_entries(layer, side, side)
                                          for e in row})
        side = (side - layer.kernel_size + 1) // layer.pool_size
    return count


def test_public_pixels_plan_nothing(monkeypatch):
    """On the fast path a pixel with no private bit charges 0 and gets its
    products as integers, without a plan: a public image makes no plan
    and evaluates no NAND.  A private image then plans each (input
    channel, entry set) once (25 for the tiny model's conv layer, 4 for
    its fc layer), a second one plans nothing, and the scores equal the
    public image's."""
    made = _count_plans(monkeypatch)
    net = demo.tiny_model()
    pixels = demo.synthetic_images(1, 6, 6, seed=5)[0]
    backend = ClearBackend(fast_arith=True)
    public = cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend, encrypt=False), net)
    assert made == [] and backend.stats.nand_count == 0
    assert all(bit.public is not None for score in public.scores for bit in score.bits.bits)
    private = [scores_of(cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend), net))
               for _ in range(2)]
    assert len(made) == _entry_plans(net) == 25 + 4
    assert private[0] == private[1] == scores_of(public)


def test_public_images_fold_without_a_probe(monkeypatch):
    """A public image folds every gate, so the fast path charges it 0
    without running any circuit on a FoldProbe: each neuron's sum, ReLU
    and max fold of wholly public operands is the public integer.  Two
    different public images build no probe, even with an empty fold memo;
    their scores' public bits are their values, and they score as their
    private encryptions do."""
    built = []
    monkeypatch.setattr(fp, "_FOLDS", {})
    monkeypatch.setattr(fp, "FoldProbe", lambda: built.append(1) or FoldProbe())
    net = demo.tiny_model()
    for pixels in demo.synthetic_images(2, 6, 6, seed=8):
        backend = ClearBackend(fast_arith=True)
        public = cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend, encrypt=False), net)
        assert built == [] and backend.stats.nand_count == 0
        full = (1 << net.fmt.total_bits) - 1
        assert [fp.public_pattern(score) for score in public.scores] == [
            (full, fp._lane_values(score)[0] & full) for score in public.scores]
        private = cnn.classify(cnn.encrypt_image(pixels, net.fmt, ClearBackend(), encrypt=True),
                               net)
        assert scores_of(public) == scores_of(private)


def _reachable(root):
    """Every object reachable from ``root`` through containers, object
    arrays and the attributes of gatecnn objects."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend([*obj.keys(), *obj.values()])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray) and obj.dtype == object:
            stack.extend(obj.ravel().tolist())
        elif type(obj).__module__.startswith("gatecnn") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())


def test_fast_classify_keeps_no_plan(monkeypatch):
    """A fast_arith classify makes its entry-set plans, walks each and
    drops it: no plan stays reachable from the model, so the plans never
    add up in memory."""
    made = _count_plans(monkeypatch)
    net = demo.tiny_model()
    backend = ClearBackend(fast_arith=True)
    cnn.classify(cnn.encrypt_image(demo.synthetic_images(1, 6, 6)[0], net.fmt, backend), net)
    assert len(made) == _entry_plans(net)
    objects = list(_reachable(net))
    assert any(isinstance(obj, cnn.LayerSpec) and obj.charges for obj in objects)
    assert not any(isinstance(obj, g.ConstMulPlan) for obj in objects)


def test_layer_charges_keep_the_latest_inputs(monkeypatch):
    """Each public image has public_patterns of its own; the layer
    evaluator keeps the charges of the latest _CHARGES_LIMIT only, and
    charges a kept one again exactly (encrypted weights, so gates are
    left to charge)."""
    monkeypatch.setattr(cnn, "_CHARGES_LIMIT", 3)
    net = _folding_net()
    images = np.random.default_rng(12).uniform(-0.5, 0.5, (6, 5, 3))
    counts = []
    for pixels in list(images) + [images[-1]]:
        backend = ClearBackend(fast_arith=True)
        cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend, encrypt=False), net,
                     encrypt_weights=True)
        counts.append(backend.stats.nand_count)
        assert all(len(layer.charges) <= 3 for layer in net.layers)
    assert len(net.layers[0].charges) == 3
    assert counts[-1] == counts[-2] > 0


def test_layers_guard_the_certified_widths():
    """Given a certificate, both evaluators check each layer input against
    its input width, each leaf against the width it is read at and each
    root against its width, where the narrow circuits stop being exact:
    with pixels of 1.0 (18 bits at f=16) the certified layer runs, a
    certificate one bit narrower on the root or on a leaf raises, and so
    does an input of 2.0 (19 bits)."""
    spec = make_fc(2, 1, weights=np.array([[0.75, 0.5]]), biases=np.zeros(1))
    (certificate,) = cnn.NetworkSpec([spec], 1, 2, FMT).certificate()
    assert certificate.input_bits == 18 and certificate.root_bits.tolist() == [18]
    # the zero bias is read at 0 bits, each product at its 17 signed bits
    assert certificate.leaf_bits.tolist() == [[0, 17, 17]]
    assert certificate.leaf_signed.tolist() == [[False, True, True]]
    narrow = dataclasses.replace(certificate, root_bits=certificate.root_bits - 1)
    short = dataclasses.replace(certificate, leaf_bits=certificate.leaf_bits - [0, 1, 0])
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        ones = [fp.encode(1.0, FMT, backend)] * 2
        assert scores_of(cnn.fc_layer(ones, spec, certificate=certificate)) == [1.25]
        with pytest.raises(OverflowDiagnostic, match="addition .* 17-bit range"):
            cnn.fc_layer(ones, spec, certificate=narrow)
        with pytest.raises(OverflowDiagnostic, match="a sum term .* 16-bit range"):
            cnn.fc_layer(ones, spec, certificate=short)
        past = [fp.encode(2.0, FMT, backend), fp.encode(0.0, FMT, backend)]
        with pytest.raises(OverflowDiagnostic, match="18-bit range"):
            cnn.fc_layer(past, spec, certificate=certificate)


class _WiredBackend(ClearBackend):
    """A ClearBackend that keeps each evaluated NAND's output bit with its
    two operands, each XOR's with its two and each NOT's with its one."""

    def __init__(self):
        super().__init__()
        self.gates, self.free = {}, {}

    def nand(self, a, b):
        out = super().nand(a, b)
        self.gates[id(out)] = (out, a, b)
        return out

    def not_(self, a):
        out = super().not_(a)
        self.free[id(out)] = (out, a)
        return out

    def xor_(self, a, b):
        out = super().xor_(a, b)
        self.free[id(out)] = (out, a, b)
        return out


@pytest.mark.parametrize("encrypt_weights", [False, True])
@pytest.mark.parametrize("model, side", [(demo.micro_model, 2), (demo.tiny_model, 6)])
def test_every_nand_reaches_a_score(model, side, encrypt_weights):
    """Gate by gate, every NAND a classify evaluates lies in the cone of
    the score bits: walking back from them through each gate's operands,
    XORs and NOTs included, reaches all of them, so no gate is built that
    no output reads."""
    net = model()
    backend = _WiredBackend()
    pixels = demo.synthetic_images(1, side, side)[0]
    scores = cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend), net,
                          encrypt_weights=encrypt_weights)
    stack, reached = [bit for score in scores.scores for bit in score.bits.bits], set()
    while stack:
        bit = stack.pop()
        wired = backend.gates.get(id(bit)) or backend.free.get(id(bit))
        if wired and id(bit) not in reached:
            reached.add(id(bit))
            stack.extend(wired[1:])
    reached &= backend.gates.keys()
    assert backend.stats.nand_count == len(backend.gates) > 0
    assert len(backend.gates) - len(reached) == 0


def test_add_trees_depend_only_on_the_public_weights(tmp_path):
    """Two independent certificates of the preset model, one from a saved
    and reloaded copy, give equal leaf and root widths.  Each leaf is read
    at the bits of its interval, unsigned when it is >= 0: conv2 and fc
    read the ReLU'd maps, so their products by positive weights are read
    unsigned, in fewer bits in all than signed, while every conv1 product
    of a pixel in [-1, 1] is read signed."""
    net = demo.preset_model()
    model_io.save_model(net, tmp_path / "preset.txt")
    again = model_io.load_model(tmp_path / "preset.txt")
    for mine, theirs in zip(net.certificate(), again.certificate()):
        for name in ("leaf_bits", "leaf_signed", "root_bits"):
            assert np.array_equal(getattr(mine, name), getattr(theirs, name))
    for i, (layer, certificate) in enumerate(zip(net.layers, net.certificate())):
        biases = layer.scaled(net.fmt)[1][:, None]
        low, high = (np.concatenate([biases, ends], axis=1) for ends in certificate.products)
        signed = cnn._signed_bits(low, high)
        assert np.array_equal(certificate.leaf_signed, low < 0)
        assert np.array_equal(certificate.leaf_bits, np.where(low < 0, signed, signed - 1))
        roots = cnn._signed_bits(*(v.sum(axis=1) for v in (low, high)))
        assert np.array_equal(certificate.root_bits, np.minimum(roots, net.fmt.total_bits))
        products = certificate.leaf_bits[:, 1:].sum()
        assert (products < signed[:, 1:].sum()) == (i > 0)


def test_encrypt_weights_fold_over_the_bounded_tree():
    """With encrypted weights a neuron is one fp_sum of the bias and the
    (input, weight) products at the bounded walk's widths, gate for gate;
    every neuron of the layer has the same widths.  The micro model's
    bounds: 7-bit pixels, 6-bit weights, 3-bit biases, 6-bit floored
    products (window [5, 11)), all read signed, and 8-bit roots."""
    (micro,) = demo.micro_model().certificate(encrypt_weights=True)
    assert demo.micro_model().layers[0].bit_widths(fp.FixedPointFormat(10, 5)) == (6, 3)
    assert micro.mul_bits == (7, 6, 6)
    assert micro.leaf_bits.tolist() == [[3, 6, 6, 6, 6]] * 2 and micro.leaf_signed.all()
    assert micro.root_bits.tolist() == [8, 8]
    small = fp.FixedPointFormat(10, 5)
    rnd = random.Random(22)
    spec = make_fc(4, 2, weights=np.array([[rnd.uniform(-1, 1) for _ in range(4)]
                                           for _ in range(2)]), biases=np.array([0.25, -0.5]))
    (certificate,) = cnn.NetworkSpec([spec], 2, 2, small).certificate(encrypt_weights=True)
    input_bits, leaf_bits, leaf_signed, root_bits, mul_bits = cnn._widths(spec, small,
                                                                           certificate)
    assert (leaf_bits == leaf_bits[0]).all() and (leaf_signed == leaf_signed[0]).all()
    assert (root_bits == root_bits[0]).all()
    assert input_bits == 7 and mul_bits[0] == 7 and mul_bits[1] < 10 and mul_bits[2] < 10
    vals = [rnd.uniform(-1, 1) for _ in range(4)]
    runs = []
    for by_hand in (False, True):
        backend = ClearBackend()
        xs = [fp.encode(v, small, backend) for v in vals]
        if by_hand:
            scores = []
            for o in range(2):
                values = [fp.encode(spec.biases[o], small, backend)] + [
                    (x, fp.encode(w, small, backend)) for x, w in zip(xs, spec.weights[o])]
                terms = [(int(leaf_bits[o, 0]), bool(leaf_signed[o, 0]))] + [mul_bits] * 4
                scores.append(fp.fp_sum(values, terms, int(root_bits[o])))
        else:
            scores = cnn.fc_layer(xs, spec, True, certificate=certificate).scores
        runs.append(([s.bits.to_int() for s in scores], backend.stats.nand_count))
    assert runs[0] == runs[1]
    backend = ClearBackend()
    public = cnn.fc_layer([fp.encode(v, small, backend) for v in vals], spec).scores
    assert [s.bits.to_int() for s in public] == runs[0][0]


def test_layer_charges_are_kept_per_tree():
    """Two sums at the same root width over zero and power-of-two weights,
    one reading every leaf signed at w bits and one at the certified leaf
    widths, fold differently; the layer evaluator charges each what the
    gate path evaluates, though the same LayerSpec keeps both charges."""
    small = fp.FixedPointFormat(10, 5)
    spec = make_fc(4, 1, weights=np.array([[0.0, 0.5, -0.25, 0.0]]),
                   biases=np.array([0.25]), act=cnn.RELU)
    (certificate,) = cnn.NetworkSpec([spec], 2, 2, small).certificate()
    # the bias 8 unsigned, the zero products in 0 bits, ±16 and ±8 signed
    assert certificate.leaf_bits.tolist() == [[4, 0, 6, 5, 0]]
    assert certificate.leaf_signed.tolist() == [[False, False, True, True, False]]
    charged = []
    for leaf_bits, leaf_signed in ((np.full((1, 5), 10), np.ones((1, 5), dtype=bool)),
                                   (certificate.leaf_bits, certificate.leaf_signed)):
        tree = dataclasses.replace(certificate, leaf_bits=leaf_bits, leaf_signed=leaf_signed,
                                   root_bits=np.full(1, 10))
        runs = []
        for fast in (True, False):
            backend = ClearBackend(fast_arith=fast)
            xs = [fp.encode(v, small, backend) for v in (0.5, 0.75, -1.0, 0.25)]
            scores = scores_of(cnn.fc_layer(xs, spec, certificate=tree))
            runs.append((scores, backend.stats.nand_count))
        assert runs[0] == runs[1]
        charged.append(runs[0])
    assert charged[0][0] == charged[1][0] == [0.875]
    assert charged[0][1] != charged[1][1]


def _scaled_tiny(factor):
    """A new tiny model with every weight times ``factor``."""
    net = demo.tiny_model()
    return dataclasses.replace(net, layers=[
        dataclasses.replace(layer, weights=layer.weights * factor) for layer in net.layers])


def test_gsw_refuses_a_model_whose_certificate_does_not_fit(toy_params, toy_key):
    """Public weights on an encrypted backend: a model some of whose values
    need more than w bits for pixels in [-1, 1] is refused with
    RangeError before any gate.  The clear backend, which checks every
    value, still runs it on an image whose values fit."""
    net = _scaled_tiny(8.0)
    assert [c.fits for c in net.certificate()] == [True, False]
    pixels = np.full((1, 6, 6), 1 / 64)
    backend = GswBackend(toy_params, key=toy_key, seed=3, auto_refresh=True)
    img = cnn.encrypt_image(pixels, net.fmt, backend)
    before = backend.stats.nand_count
    with pytest.raises(RangeError, match="layer 1 needs more than w=12 bits"):
        cnn.classify(img, net)
    assert backend.stats.nand_count == before
    clear = ClearBackend(fast_arith=True)
    cnn.classify(cnn.encrypt_image(pixels, net.fmt, clear), net)
    assert clear.stats.nand_count > 0
    assert all(c.fits for c in _scaled_tiny(1.0).certificate())


def _pool_spread_net():
    """A 1x1 linear conv with weight 10 and a 2x2 max pool at w=10, f=5,
    then a 1 -> 1 fc: its outputs fit, in [-320, 320], but two of them can
    differ by 640, past the 511 a pool comparison can take."""
    return cnn.NetworkSpec(
        [make_conv(1, 1, 1, 2, weights=np.full((1, 1, 1, 1), 10.0), biases=np.zeros(1),
                   act=cnn.LINEAR),
         make_fc(1, 1, weights=np.ones((1, 1)), biases=np.zeros(1))],
        input_height=2, input_width=2, fmt=fp.FixedPointFormat(10, 5))


@pytest.mark.parametrize("case", ["micro_times_14", "pool_spread"])
def test_gsw_refuses_every_model_that_does_not_fit(toy_params, toy_key, case):
    """Two models whose values wrap at w bits on one image: the micro
    model with weights times 14 (its fc sums) and _pool_spread_net (its
    pool's comparison).  The clear backend finds the overflow as it
    computes; gsw, which cannot, refuses each with RangeError before any
    gate, with public or encrypted weights, where it would return wrong
    scores."""
    if case == "micro_times_14":
        net = dataclasses.replace(demo.micro_model(), layers=[
            dataclasses.replace(layer, weights=layer.weights * 14)
            for layer in demo.micro_model().layers])
        pixels, want, overflow = [[1.0, -1.0], [1.0, 1.0]], [24.87, 11.78], "addition"
    else:
        net = _pool_spread_net()
        pixels, want, overflow = [[1.0, -1.0], [-1.0, -1.0]], [10.0], "integer 640"
    assert np.allclose(cnn.reference_classify(np.array(pixels), net), want, atol=0.005)
    assert [c.fits for c in net.certificate()] == [False] + [True] * (len(net.layers) - 1)
    for encrypt_weights in (False, True):
        clear = ClearBackend()
        with pytest.raises(OverflowDiagnostic, match=overflow):
            cnn.classify(cnn.encrypt_image(pixels, net.fmt, clear), net, encrypt_weights)
        backend = GswBackend(toy_params, key=toy_key, seed=3, auto_refresh=True)
        img = cnn.encrypt_image(pixels, net.fmt, backend)
        with pytest.raises(RangeError, match="layer 0 needs more than w="):
            cnn.classify(img, net, encrypt_weights)
        assert backend.stats.nand_count == 0


def test_models_are_frozen_so_their_caches_stay_true():
    """A certified model cannot be edited in place, where its cached
    certificate, scaled weights and plans would go stale; a model rebuilt
    with weights times 8 is certified afresh."""
    net = demo.tiny_model()
    assert all(c.fits for c in net.certificate())
    head = net.layers[-1]
    with pytest.raises(ValueError, match="read-only"):
        head.weights *= 8
    with pytest.raises(ValueError, match="read-only"):
        head.biases[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        head.weights = head.weights * 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers = net.layers[:1]
    with pytest.raises(TypeError):
        net.layers[0] = head
    scaled = dataclasses.replace(net, layers=[
        dataclasses.replace(layer, weights=layer.weights * 8) for layer in net.layers])
    assert [c.fits for c in scaled.certificate()] == [True, False]
    assert all(c.fits for c in net.certificate())


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
    with pytest.raises(ParameterError, match="at least one value"):
        cnn.argmax([])
    scores = [0.0] * 10
    scores[2] = scores[7] = 0.9  # tied maxima at 2 and 7 -> lowest index
    assert cnn.argmax(scores) == 2


@pytest.mark.parametrize("encrypt_weights", [False, True])
def test_classify_gate_trace_depends_only_on_shape(tiny_net, encrypt_weights):
    """Two images give the same gate-level NAND count; with encrypted
    weights so do two networks of the same shapes whose weights and
    biases are permuted within each layer, which keeps the layers' public
    bit widths."""
    rng = np.random.default_rng(21)
    other = tiny_net
    if encrypt_weights:
        other = dataclasses.replace(tiny_net, layers=[dataclasses.replace(
            layer, weights=rng.permutation(layer.weights.ravel()).reshape(layer.weights.shape),
            biases=rng.permutation(layer.biases)) for layer in tiny_net.layers])
        assert not np.array_equal(other.layers[0].weights, tiny_net.layers[0].weights)
    counts = []
    for net in (tiny_net, other):
        backend = ClearBackend()  # gate-level
        pixels = rng.uniform(-1, 1, (1, 6, 6))
        cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend), net, encrypt_weights)
        counts.append(backend.stats.nand_count)
    assert counts[0] == counts[1]


def test_private_widths_follow_only_the_weight_bit_widths(tiny_net):
    """What an encrypted model's circuits reveal: a head weight raised to
    the largest magnitude of the head's weight bits leaves every layer's
    widths as they are; one that crosses the next power of two widens the
    head's multiplies and nothing before it."""
    fmt, head = tiny_net.fmt, tiny_net.layers[-1]
    b_w = head.bit_widths(fmt)[0]

    def widths(value):
        weights = head.weights.copy()
        weights[0, 0] = value
        net = dataclasses.replace(tiny_net, layers=[
            *tiny_net.layers[:-1], dataclasses.replace(head, weights=weights)])
        return [tuple(np.asarray(v).tolist() for v in cnn._widths(layer, fmt, certificate))
                for layer, certificate in zip(net.layers, net.certificate(encrypt_weights=True))]

    base = widths(head.weights[0, 0])
    assert widths(-((1 << b_w - 1) - 1) / fmt.scale) == base
    wider = widths((1 << b_w - 1) / fmt.scale)
    assert wider[:-1] == base[:-1]
    assert wider[-1][4][1] == b_w + 1 and wider[-1][4] > base[-1][4]


def test_private_multiply_reads_enough_bits_for_its_window(fast_vs_gate):
    """A layer whose inputs and weights fit 2 bits each has floored
    products in [-1, 0], bit f = 5 of a product that fits 4 bits; the
    multiply reads the weight at 4 bits, enough for the window [5, 6),
    and both evaluators give the public weights' scores."""
    small = fp.FixedPointFormat(10, 5)
    net = cnn.NetworkSpec([make_fc(1, 2, weights=np.full((2, 1), 1 / 32), biases=np.zeros(2),
                                   act=cnn.RELU),
                           make_fc(2, 2, weights=np.array([[1, -1], [-1, -1]]) / 32,
                                   biases=np.zeros(2))], 1, 1, small)
    assert net.certificate(encrypt_weights=True)[1].mul_bits == (2, 4, 1)
    pixels = np.linspace(-1, 1, 7)[:, None, None, None]
    (scores, nands), gate = fast_vs_gate(net, pixels, encrypt_weights=True)
    assert (scores, nands) == gate and nands > 0
    assert scores == fast_vs_gate(net, pixels)[0][0]


def _conv_fc_net():
    """An fc layer after a 3x3 convolution on a 5x7 input: 2 maps of 3x5,
    flattened to 30 features; some weights fold (zero, ±power of two)."""
    rng = np.random.default_rng(31)
    conv_w = rng.normal(0, 0.3, (2, 1, 3, 3))
    conv_w[0, 0, 1] = [0.0, 0.5, -1.0]
    fc_w = rng.normal(0, 0.2, (3, 30))
    fc_w[1, ::4] = [0.0, 0.25, -0.5, 1.0, 0.0, -0.125, 0.5, 0.0]
    return cnn.NetworkSpec([make_conv(1, 2, 3, 1, weights=conv_w, seed=32),
                            make_fc(30, 3, weights=fc_w, seed=33)],
                           input_height=5, input_width=7, fmt=fp.FixedPointFormat(10, 5))


def _fc_fc_net():
    """Two fc layers, 6 -> 4 (ReLU) -> 3, on a 2x3 input."""
    return cnn.NetworkSpec([make_fc(6, 4, act=cnn.RELU, seed=34), make_fc(4, 3, seed=35)],
                           input_height=2, input_width=3, fmt=fp.FixedPointFormat(10, 5))


def _pool3_net():
    """A 2-channel 7x10 input, a 2x2 convolution to 3 maps with ReLU and
    3x3 pooling (6x9 maps pooled to 2x3), then fc 18 -> 2."""
    return cnn.NetworkSpec([make_conv(2, 3, 2, 3, seed=37), make_fc(18, 2, seed=38)],
                           input_height=7, input_width=10, fmt=fp.FixedPointFormat(10, 5),
                           input_channels=2)


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("encrypt_weights", [False, True])
@pytest.mark.parametrize("make_net", [_conv_fc_net, _fc_fc_net, _pool3_net])
def test_fc_layers_match_gate_path(make_net, encrypt_weights, certified):
    """Layer by layer, with public or encrypted weights and with or
    without the certificate's widths: the whole-layer evaluator gives the
    gate path's values, output public_patterns and NANDs, on an fc layer
    after a convolution of a non-square input, on an fc layer after
    another, and after a 3x3 pooling of non-square maps."""
    net = make_net()
    pixels = np.random.default_rng(36).uniform(
        -1, 1, (net.input_channels, net.input_height, net.input_width))
    runs = []
    for fast in (True, False):
        backend = ClearBackend(fast_arith=fast)
        current = cnn.encrypt_image(pixels, net.fmt, backend)
        layers = []
        for i, layer in enumerate(net.layers):
            certificate = net.certificate(encrypt_weights)[i] if certified else None
            before = backend.stats.nand_count
            if layer.kind == cnn.CONVOLUTION:
                current = cnn.conv_layer(current, layer, encrypt_weights, layer_index=i,
                                         certificate=certificate)
                cells = [v for grid in current.channels for row in grid for v in row]
            else:
                if isinstance(current, cnn.EncImage):
                    current = cnn.flatten_image(current)
                current = cells = cnn.fc_layer(current, layer, encrypt_weights, layer_index=i,
                                               certificate=certificate).scores
            layers.append(([(fp._lane_values(v)[0], fp.public_pattern(v)) for v in cells],
                           backend.stats.nand_count - before))
        runs.append(layers)
    fast, gate = runs
    assert fast == gate
    assert all(nands > 0 for _, nands in fast)


@pytest.mark.parametrize("make_net", [_conv_fc_net, _fc_fc_net, _pool3_net])
def test_private_weights_on_a_public_image_match_gate_path(make_net):
    """Encrypted weights on a public image: each product is a mul_const by
    the pixel, planned at the weight's width; the whole-layer evaluator
    gives the gate path's values and NANDs, and the values of public
    weights."""
    net = make_net()
    pixels = np.random.default_rng(39).uniform(
        -1, 1, (net.input_channels, net.input_height, net.input_width))
    runs = []
    for fast, encrypt_weights in ((True, True), (False, True), (True, False)):
        backend = ClearBackend(fast_arith=fast)
        scores = cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend, encrypt=False), net,
                              encrypt_weights)
        runs.append(([fp._lane_values(s)[0] for s in scores.scores], backend.stats.nand_count))
    assert runs[0] == runs[1] and runs[0][1] > 0
    assert runs[2][0] == runs[0][0]


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


def _encrypted_weight_layers(net, pixels, fast: bool) -> tuple:
    """(score integers, NANDs per layer) of one private image classified
    with encrypted weights on a clear backend."""
    backend = ClearBackend(fast_arith=fast)
    current = cnn.encrypt_image(pixels, net.fmt, backend)
    nands = []
    for i, (layer, certificate) in enumerate(zip(net.layers,
                                                 net.certificate(encrypt_weights=True))):
        before = backend.stats.nand_count
        if layer.kind == cnn.CONVOLUTION:
            current = cnn.conv_layer(current, layer, True, layer_index=i, certificate=certificate)
        else:
            if isinstance(current, cnn.EncImage):
                current = cnn.flatten_image(current)
            current = cnn.fc_layer(current, layer, True, layer_index=i,
                                   certificate=certificate).scores
        nands.append(backend.stats.nand_count - before)
    return [fp._lane_values(s)[0] for s in current], nands


def test_encrypted_weight_model_counts(tiny_net, preset_net):
    """The NANDs of one private image with encrypted weights, pinned per
    layer: the tiny model's on the gate path and as the fast path's charge
    (75,644 before each neuron summed its products' partial products in
    its own reducer, 70,172 and 4,694 before each product skipped its
    carry-free low columns and each max its public equal bits, 69,836
    and 4,678 before NOT was free and each neuron built its private
    products apart, 48,016 and 3,326 before XOR was free), and the preset
    model's charge (560,479,052, then 546,817,716, 546,461,940 and
    393,227,778 before)."""
    tiny = demo.synthetic_images(1, 6, 6)[0]
    assert _encrypted_weight_layers(tiny_net, tiny, True) == \
        _encrypted_weight_layers(tiny_net, tiny, False) == ([-12, -8], [13_352, 906])
    scores, nands = _encrypted_weight_layers(preset_net, demo.synthetic_images(1, 28, 28)[0],
                                             True)
    assert nands == [32_954_112, 66_891_360, 2_107_260]
    assert sum(nands) == 101_952_732
    assert scores == [-11573, -38049, -42303, 29431, 40512, -30593, 47464, 32579, -397, 8366]


def test_merged_neurons_cost_no_more_than_separate_products():
    """Per neuron of each layer of the micro, tiny and preset models with
    encrypted weights, on private operands at the bounded walk's widths:
    fp_sum of the bias and the (input, weight) pairs costs no more than
    fp_mul's products summed as words, the neuron before (pinned: before,
    after).  Both now build each product on its own array, so they are
    equal."""
    costs = []
    for net in (demo.micro_model(), demo.tiny_model(), demo.preset_model()):
        for c in net.certificate(encrypt_weights=True):
            bias = (int(c.leaf_bits[0, 0]), bool(c.leaf_signed[0, 0]))
            fan_in, root = c.leaf_bits.shape[1] - 1, int(c.root_bits[0])
            mul, product = fp.fold_costs("mul", net.fmt, [(fp.PRIVATE, fp.PRIVATE)],
                                         c.mul_bits)[0]
            words = fp.sum_costs(net.fmt, [fp.PRIVATE] + [product] * fan_in,
                                 [bias] + [(c.mul_bits[2], True)] * fan_in, root)[0]
            merged = fp.sum_costs(net.fmt, [fp.PRIVATE] + [(fp.PRIVATE, fp.PRIVATE)] * fan_in,
                                  [bias] + [c.mul_bits] * fan_in, root)[0]
            costs.append((fan_in * mul + words, merged))
    assert all(after <= before for before, after in costs)
    assert costs == [(315, 315), (812, 812), (477, 477), (14_253, 14_253),
                     (71_311, 71_311), (214_566, 214_566)]
