"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run pytest -s to see them inline).
"""

import math
import random

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gatecnn import cli, cnn, error_analysis, model_io
from gatecnn import fhe_core as fc
from gatecnn import fixedpoint as fp
from gatecnn import gates as g
from gatecnn.demo import micro_model, synthetic_images


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def wrap(v, w):
    v &= (1 << w) - 1
    return v - (1 << w) if v >> (w - 1) else v


# ----------------------------------------------------------------------
# 1. end-to-end classification agreement over 20 images
# ----------------------------------------------------------------------

def test_criterion_1_end_to_end_agreement(verify_run):
    report, matches = verify_run
    agreements = sum(1 for got, want in matches if got == want)
    assert agreements == len(matches) == 20
    _report(1, f"20/20 argmax agreement between the fixed-point path and the "
               f"float64 reference (w=32)")


# ----------------------------------------------------------------------
# 2. numerical error region and bound domination for the 32/16 format
# ----------------------------------------------------------------------

def test_criterion_2_error_region(verify_run, preset_net):
    report, _ = verify_run
    assert preset_net.fmt.total_bits == 32
    assert preset_net.fmt.frac_bits == 16
    assert preset_net.fmt.scale == 65536
    assert report.empirical_mean <= 5e-3
    assert report.bound_violations == 0  # every score under the layer-product bound
    _report(2, f"mean per-score error {report.empirical_mean:.2e} "
               f"(std {report.empirical_std:.2e}, max {report.empirical_max_error:.2e}) "
               f"<= 5e-3; all under the bound {report.total_bound:.2e}")


# ----------------------------------------------------------------------
# 3. layer-product bound property over random small networks
# ----------------------------------------------------------------------

def _random_small_net(seed):
    """1-3 layers, output widths <= 8, kernels <= 3, weights scaled so
    values stay well inside the 32/16 format."""
    rng = np.random.default_rng(seed)
    fmt = fp.FixedPointFormat(32, 16)
    input_side = int(rng.integers(5, 9))
    side, channels = input_side, 1
    layers = []
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(2, 4))
        out_side = side - k + 1
        if out_side < 1:
            break
        pool = 2 if out_side % 2 == 0 and rng.random() < 0.5 else 1
        cout = int(rng.integers(1, 9))
        act = cnn.RELU if rng.random() < 0.7 else cnn.LINEAR
        fan = channels * k * k
        layers.append(cnn.LayerSpec(
            cnn.CONVOLUTION, channels, cout,
            rng.normal(0, 0.6 / math.sqrt(fan), (cout, channels, k, k)),
            rng.normal(0, 0.1, cout), act, k, pool))
        channels, side = cout, out_side // pool
    flat = channels * side * side
    outs = int(rng.integers(2, 9))
    layers.append(cnn.LayerSpec(
        cnn.FULLY_CONNECTED, flat, outs,
        rng.normal(0, 0.6 / math.sqrt(flat), (outs, flat)),
        rng.normal(0, 0.1, outs), cnn.LINEAR))
    return cnn.NetworkSpec(layers, input_side, input_side, fmt)


def test_criterion_3_bound_property_random_networks():
    rng = np.random.default_rng(123)
    total_runs = 0
    worst_margin = 0.0
    for i in range(100):
        net = _random_small_net(1000 + i)
        images = [rng.uniform(-1, 1, (1, net.input_height, net.input_width))
                  for _ in range(10)]
        report = error_analysis.empirical_error(net, images)
        total_runs += report.images_checked
        assert report.slack_violations == 0, f"net {i}: empirical error above bound+slack"
        if report.bound_with_slack > 0:
            worst_margin = max(worst_margin,
                               report.empirical_max_error / report.bound_with_slack)
    assert total_runs == 1000
    _report(3, f"100 random networks x 10 inputs: 0 violations of "
               f"bound+slack (worst usage {worst_margin:.1%})")


def _exact_layers(net, pixels):
    """Per layer, the scaled integers the evaluators compute for one
    (c, h, w) image, as Python integers: the terms each neuron reads
    (..., fan-in) in window order, the floored products (..., out,
    fan-in), each neuron's root, its bias plus its products (..., out),
    and the outputs after activation and pooling (..., out)."""
    fmt = net.fmt
    x = np.array([[[fp.float_to_scaled(v, fmt) for v in row] for row in grid]
                  for grid in pixels], dtype=object)
    layers = []
    for layer in net.layers:
        weights = np.array([[fp.float_to_scaled(v, fmt) for v in row]
                            for row in layer.weights.reshape(layer.out_channels, -1)],
                           dtype=object)
        biases = np.array([fp.float_to_scaled(v, fmt) for v in layer.biases], dtype=object)
        if layer.kind == cnn.CONVOLUTION:
            k = layer.kernel_size
            terms = sliding_window_view(x, (k, k), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
            terms = terms.reshape(terms.shape[:2] + (-1,))
        else:
            terms = x.reshape(-1)
        products = (terms[..., None, :] * weights) >> fmt.frac_bits
        roots = biases + products.sum(axis=-1)
        outputs = roots
        if layer.activation == cnn.RELU:
            outputs = np.maximum(outputs, 0)
        if layer.kind == cnn.CONVOLUTION:
            pool = layer.pool_size
            h, w = outputs.shape[0] // pool, outputs.shape[1] // pool
            outputs = outputs.reshape(h, pool, w, pool, -1).max(axis=(1, 3))
            x = outputs.transpose(2, 0, 1)
        else:
            x = outputs
        layers.append((terms, products, roots, outputs))
    return layers


def _inside(values, interval) -> bool:
    low, high = interval
    return bool(((low <= values) & (values <= high)).all())


def _layers_on_both_evaluators(net, pixels):
    """Layer by layer at the certificate's widths, on the whole-layer
    evaluator and gate by gate: each output's (value, public_pattern) and
    the layer's NANDs."""
    runs = []
    for fast in (True, False):
        backend = fc.ClearBackend(fast_arith=fast)
        current = cnn.encrypt_image(pixels, net.fmt, backend)
        layers = []
        for layer, certificate in zip(net.layers, net.certificate()):
            before = backend.stats.nand_count
            if layer.kind == cnn.CONVOLUTION:
                current = cnn.conv_layer(current, layer, certificate=certificate)
                cells = [v for grid in current.channels for row in grid for v in row]
            else:
                if isinstance(current, cnn.EncImage):
                    current = cnn.flatten_image(current)
                current = cells = cnn.fc_layer(current, layer, certificate=certificate).scores
            layers.append(([(fp._lane_values(v)[0], fp.public_pattern(v)) for v in cells],
                           backend.stats.nand_count - before))
        runs.append(layers)
    return runs


def test_certificate_holds_on_random_networks():
    """Criterion 3's random networks on pixels in [-1, 1], the all +1 and
    all -1 corners among them: every input, product, root and layer
    output, in exact integers, lies inside its certified interval; each
    leaf's interval (the bias, then the products) fits the width it is
    read at, unsigned where the interval is >= 0, each root's its root
    width and each input's the input width; and the scores are those of
    classify.  On three of the networks, layer by
    layer, the whole-layer evaluator and the gate path give the same
    values, NANDs and output public_patterns, with fewer NANDs than at w
    bits."""
    rng = np.random.default_rng(321)
    for i in range(100):
        net = _random_small_net(1000 + i)
        fmt, shape = net.fmt, (1, net.input_height, net.input_width)
        certificate = net.certificate()
        for layer, widths in zip(net.layers, certificate):
            assert widths.fits
            biases = layer.scaled(fmt)[1][:, None]
            leaves = [np.concatenate([biases, ends], axis=1) for ends in widths.products]
            span, signed = 1 << widths.leaf_bits.astype(object), widths.leaf_signed
            reading = np.where(signed, -(span >> 1), 0), np.where(signed, span >> 1, span) - 1
            assert _inside(leaves[0], reading) and _inside(leaves[1], reading)
            limit = 1 << (widths.root_bits - 1).astype(object)
            assert _inside(widths.roots[0], (-limit, limit - 1))
            assert _inside(widths.roots[1], (-limit, limit - 1))
            half = 1 << (widths.input_bits - 1)
            assert _inside(np.concatenate(widths.inputs), (-half, half - 1))
        for pixels in (np.ones(shape), -np.ones(shape), rng.choice((-1.0, 1.0), shape),
                       rng.uniform(-1, 1, shape)):
            layers = _exact_layers(net, pixels)
            for (terms, products, roots, outputs), widths in zip(layers, certificate):
                assert _inside(terms, widths.inputs), i
                assert _inside(products, widths.products), i
                assert _inside(roots, widths.roots), i
                assert _inside(outputs, widths.outputs), i
            backend = fc.ClearBackend(fast_arith=True)
            scores = cnn.classify(cnn.encrypt_image(pixels, fmt, backend), net)
            assert [fp._lane_values(v)[0] for v in scores.scores] == layers[-1][3].tolist()
    for seed in (1001, 1006, 1013):
        net = _random_small_net(seed)
        assert net.layers[0].kind == cnn.CONVOLUTION
        pixels = rng.uniform(-1, 1, (1, net.input_height, net.input_width))
        pixels[0, 0] = 1.0
        fast, gate = _layers_on_both_evaluators(net, pixels)
        assert fast == gate, seed
        backend = fc.ClearBackend(fast_arith=True)
        cnn.classify(cnn.encrypt_image(pixels, net.fmt, backend), net, encrypt_weights=True)
        assert sum(nands for _, nands in fast) < backend.stats.nand_count
    _report("3b", "100 random networks x 4 inputs in [-1, 1]: every value and neuron "
                  "sum inside its certified interval; fast == gate per layer on 3 of them")


# ----------------------------------------------------------------------
# 4. circuit equivalence against independent oracles
# ----------------------------------------------------------------------

def test_criterion_4_circuit_oracles():
    # exhaustive width 6: add, sub and in-range compare
    pairs = [(x, y) for x in range(-32, 32) for y in range(-32, 32)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([p[0] for p in pairs], 6, backend)
    b = g.BitVector.from_lane_ints([p[1] for p in pairs], 6, backend)
    sums = g.add(a, b).to_lane_ints()
    diffs = g.sub(a, b).to_lane_ints()
    cmp_result = g.compare(a, b)
    for lane, ((x, y), s, d) in enumerate(zip(pairs, sums, diffs)):
        assert s == wrap(x + y, 6) and d == wrap(x - y, 6)
        if -32 <= x - y <= 31:
            assert backend.reveal_bit(cmp_result.is_negative, lane) == (1 if x < y else 0)
            assert backend.reveal_bit(cmp_result.is_zero, lane) == (1 if x == y else 0)

    # 10^4 random pairs at widths 16 and 32: wallace == schoolbook == integers
    rnd = random.Random(99)
    for width in (16, 32):
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        vals = [(rnd.randrange(lo, hi), rnd.randrange(lo, hi)) for _ in range(10000)]
        lanes = fc.ClearBackend(lanes=len(vals))
        av = g.BitVector.from_lane_ints([v[0] for v in vals], width, lanes)
        bv = g.BitVector.from_lane_ints([v[1] for v in vals], width, lanes)
        wallace = g.mul_wallace(av, bv).to_lane_ints()
        school = g.mul_schoolbook(av, bv).to_lane_ints()
        for (x, y), p, q in zip(vals, wallace, school):
            assert p == x * y == q, (width, x, y)
    _report(4, "add/sub/compare exhaustive at width 6; Wallace == schoolbook == "
               "integer oracle on 10^4 pairs at widths 16 and 32")


# ----------------------------------------------------------------------
# 5. activation/pooling exactness (no numerical error added)
# ----------------------------------------------------------------------

def test_criterion_5_exactness():
    fmt = fp.FixedPointFormat(32, 16)
    rnd = random.Random(7)

    values = [rnd.uniform(-2, 2) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(values))
    x = fp.encode_lanes(values, fmt, backend)
    relu_out = fp._lane_values(fp.fp_relu(x))
    for z, got in zip(fp._lane_values(x), relu_out):
        assert got == (z if z >= 0 else 0)

    lists = [[rnd.uniform(-1, 1) for _ in range(4)] for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(lists))
    encs = [fp.encode_lanes([row[i] for row in lists], fmt, backend) for i in range(4)]
    max_out = fp._lane_values(fp.fp_max(encs))
    columns = [fp._lane_values(e) for e in encs]
    for lane in range(len(lists)):
        assert max_out[lane] == max(col[lane] for col in columns)
    _report(5, "10^4 ReLU outputs bitwise equal input-or-zero; 10^4 4-way maxes "
               "bitwise equal the true maximum")


# ----------------------------------------------------------------------
# 6. encrypted-backend soundness at the toy preset
# ----------------------------------------------------------------------

def test_criterion_6_gsw_soundness(toy_params, toy_key):
    backend = fc.GswBackend(toy_params, key=toy_key, seed=60, auto_refresh=True)
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(1000):
                out = fc.nand(backend.encrypt_bit(a), backend.encrypt_bit(b))
                assert backend.reveal_bit(out) == 1 - (a & b)

    depth = fc.rated_nand_depth(toy_params)
    plain = fc.GswBackend(toy_params, key=toy_key, seed=61, auto_refresh=False)
    level = [plain.encrypt_bit(1) for _ in range(2 ** depth)]
    values = [1] * len(level)
    while len(level) > 1:
        level = [fc.nand(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        values = [1 - (values[i] & values[i + 1]) for i in range(0, len(values), 2)]
    assert plain.reveal_bit(level[0]) == values[0]

    rnd = random.Random(62)
    x_val, y_val = rnd.randrange(-128, 128), rnd.randrange(-128, 128)
    a = g.BitVector.from_int(x_val, 8, backend, encrypt=True)
    b = g.BitVector.from_int(y_val, 8, backend, encrypt=True)
    assert g.add(a, b).to_int() == wrap(x_val + y_val, 8)
    assert backend.stats.refresh_count > 0
    _report(6, f"4x1000 NAND truth-table decryptions correct; rated-depth "
               f"{depth} tree decrypts; width-8 adder chain correct under "
               f"auto-refresh ({backend.stats.refresh_count} refreshes)")


# ----------------------------------------------------------------------
# 7. cross-backend equivalence: the tiny CNN fully encrypted
# ----------------------------------------------------------------------

def test_criterion_7_encrypted_tiny_cnn(toy_params, toy_key, tiny_net):
    pixels = synthetic_images(1, 6, 6, seed=77)[0]
    clear = fc.ClearBackend()
    clear_scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, clear), tiny_net)
    clear_ints = [s.bits.to_int() for s in clear_scores.scores]

    gsw = fc.GswBackend(toy_params, key=toy_key, seed=70, auto_refresh=True)
    gsw_scores = cnn.classify(cnn.encrypt_image(pixels, tiny_net.fmt, gsw), tiny_net)
    gsw_ints = [s.bits.to_int() for s in gsw_scores.scores]

    assert gsw_ints == clear_ints
    # public weights take the same shift-and-add circuits on both backends
    # (219,056 NANDs with the multiplier array unfolded, 123,781 folded,
    # 28,244 with one digit chain per product, 26,037 with shared adder
    # graphs, all 12 bits wide; 15,783 at certified widths, adding in
    # input order; 14,403 with add trees and narrow ReLUs, before the fc
    # layer shared its adder graphs as a 1x1 convolution; 14,233 with one
    # adder graph per input channel, before one per entry set; 13,562
    # with add trees of ripple adds, before one column reducer per neuron;
    # 12,796 before each constant multiply was built only to the bits its
    # sums read and each max passed its carry over public equal bits)
    assert gsw.stats.nand_count == clear.stats.nand_count == 12_091
    _report(7, f"tiny CNN fully encrypted on the toy preset decrypts "
               f"bit-identical to the clear backend (scores {gsw_ints}, "
               f"{gsw.stats.nand_count} NANDs, {gsw.stats.refresh_count} refreshes)")


# ----------------------------------------------------------------------
# 8. the architecture's r-product
# ----------------------------------------------------------------------

def test_criterion_8_r_product(preset_net):
    report = error_analysis.theorem_bound(preset_net)
    expected = 25.0 * math.sqrt(240.0)
    assert abs(report.r_product - expected) / expected <= 1e-9
    _report(8, f"r-product {report.r_product!r} == 25*sqrt(240) within 1e-9 relative")


# ----------------------------------------------------------------------
# 9. determinism of the command surface
# ----------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    root = tmp_path
    model_io.save_model(micro_model(), root / "m.txt")
    model_io.save_csv(np.random.default_rng(90).uniform(-1, 1, (2, 2)), root / "i.csv")

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        assert code == 0, argv
        return code

    # identical seeds -> byte-identical artifacts, for every command
    for tag in ("a", "b"):
        run("keygen", "--preset", "toy", "--seed", "9", "--out", root / f"k{tag}.key")
        run("encrypt-image", "--model", root / "m.txt", "--image", root / "i.csv",
            "--backend", "gsw", "--key", root / "ka.key", "--seed", "10",
            "--out", root / f"e{tag}.bin")
    assert (root / "ka.key").read_bytes() == (root / "kb.key").read_bytes()
    assert (root / "ea.bin").read_bytes() == (root / "eb.bin").read_bytes()

    for tag in ("a", "b"):
        run("classify", "--model", root / "m.txt", "--in", root / "ea.bin",
            "--key", root / "ka.key", "--seed", "11", "--out", root / f"s{tag}.bin")
        run("decrypt-scores", "--in", root / f"s{tag}.bin", "--key", root / "ka.key",
            "--out", root / f"d{tag}.txt")
    assert (root / "sa.bin").read_bytes() == (root / "sb.bin").read_bytes()
    assert (root / "da.txt").read_bytes() == (root / "db.txt").read_bytes()
    _report(9, "reruns produce byte-identical key, ciphertext, score and "
               "decrypted score artifacts")
