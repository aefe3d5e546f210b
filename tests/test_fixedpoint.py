import functools
import hashlib
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gatecnn import cnn, demo
from gatecnn import fhe_core as fc
from gatecnn import fixedpoint as fp
from gatecnn import gates as g
from gatecnn.errors import (
    FormatMismatchError,
    OverflowDiagnostic,
    ParameterError,
    RangeError,
)

FMT = fp.FixedPointFormat(32, 16)


def wrap(v, w):
    v &= (1 << w) - 1
    return v - (1 << w) if v >> (w - 1) else v


def scaled(x):
    return fp._lane_values(x)[0]


def test_format_invariants():
    assert FMT.scale == 65536
    with pytest.raises(ParameterError):
        fp.FixedPointFormat(8, 8)
    with pytest.raises(ParameterError):
        fp.FixedPointFormat(8, -1)
    with pytest.raises(ParameterError):
        fp.FixedPointFormat(fp.MAX_TOTAL_BITS + 1, 16)
    assert fp.FixedPointFormat(fp.MAX_TOTAL_BITS, 16).max_int == 2 ** 63 - 1


def test_encode_examples():
    backend = fc.ClearBackend()
    assert scaled(fp.encode(0.5, FMT, backend)) == 32768
    assert scaled(fp.encode(-1.0, FMT, backend)) == -65536
    # floor oracle: 0.1 * 65536 = 6553.6 -> 6553
    assert scaled(fp.encode(0.1, FMT, backend)) == 6553
    assert fp.decode(fp.encode(0.1, FMT, backend)) == pytest.approx(6553 / 65536)


def test_encode_range_error():
    backend = fc.ClearBackend()
    with pytest.raises(RangeError):
        fp.encode(40000.0, FMT, backend)
    with pytest.raises(RangeError):
        fp.encode(1.0, fp.FixedPointFormat(4, 3), backend)  # needs integer 8 > 7


def test_floor_error_bound_many():
    rnd = random.Random(4)
    values = [rnd.uniform(-1, 1) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(values))
    x = fp.encode_lanes(values, FMT, backend)
    decoded = fp.decode_lanes(x)
    for r, d in zip(values, decoded):
        assert 0 <= r - d < 1 / FMT.scale


def test_add_sub_examples():
    backend = fc.ClearBackend()
    a = fp.encode(0.25, FMT, backend)
    b = fp.encode(0.5, FMT, backend)
    assert fp.decode(fp.fp_add(a, b)) == 0.75
    assert fp.decode(fp.fp_sub(fp.encode(0.5, FMT, backend),
                               fp.encode(0.75, FMT, backend))) == -0.25


def test_add_matches_integer_oracle_randomized():
    rnd = random.Random(5)
    pairs = [(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = fp.encode_lanes([p[0] for p in pairs], FMT, backend)
    b = fp.encode_lanes([p[1] for p in pairs], FMT, backend)
    out = fp._lane_values(fp.fp_add(a, b))
    za, zb = fp._lane_values(a), fp._lane_values(b)
    for x, y, got in zip(za, zb, out):
        assert got == wrap(x + y, 32)


def test_mul_examples_and_oracle():
    backend = fc.ClearBackend()
    assert fp.decode(fp.fp_mul(fp.encode(0.5, FMT, backend),
                               fp.encode(0.5, FMT, backend))) == 0.25
    assert fp.decode(fp.fp_mul(fp.encode(-0.5, FMT, backend),
                               fp.encode(0.5, FMT, backend))) == -0.25
    rnd = random.Random(6)
    pairs = [(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = fp.encode_lanes([p[0] for p in pairs], FMT, backend)
    b = fp.encode_lanes([p[1] for p in pairs], FMT, backend)
    out = fp._lane_values(fp.fp_mul(a, b))
    za, zb = fp._lane_values(a), fp._lane_values(b)
    for x, y, got in zip(za, zb, out):
        assert got == wrap((x * y) >> 16, 32)  # floor(z_a * z_b / scale)


def test_mul_const_matches_mul_bit_exactly():
    # 1000 pairs: 20 public constants, each against 50 lane-packed operands
    rnd = random.Random(7)
    lanes = 50
    backend = fc.ClearBackend(lanes=lanes)
    for _ in range(20):
        c_val = rnd.uniform(-1, 1)
        a = fp.encode_lanes([rnd.uniform(-1, 1) for _ in range(lanes)], FMT, backend)
        via_const = fp.fp_mul_const(a, c_val)
        via_mul = fp.fp_mul(a, fp.encode_lanes([c_val] * lanes, FMT, backend))
        assert fp._lane_values(via_const) == fp._lane_values(via_mul)
    backend = fc.ClearBackend()
    assert fp.decode(fp.fp_mul_const(fp.encode(0.3, FMT, backend), 0.0)) == 0.0
    x = fp.encode(0.37, FMT, backend)
    assert scaled(fp.fp_mul_const(x, 1.0)) == scaled(x)


def test_mul_error_vs_real_product_bound():
    """|fp_mul(a,b) - a*b| <= |a|*d_b + |b|*d_a + d_a*d_b + 1/scale, where
    d_x is x's own representation error."""
    rnd = random.Random(17)
    pairs = [(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(5000)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = fp.encode_lanes([p[0] for p in pairs], FMT, backend)
    b = fp.encode_lanes([p[1] for p in pairs], FMT, backend)
    products = fp.decode_lanes(fp.fp_mul(a, b))
    for (va, vb), ra, rb, got in zip(pairs, fp.decode_lanes(a), fp.decode_lanes(b), products):
        da = va - ra
        db = vb - rb
        bound = abs(va) * db + abs(vb) * da + da * db + 1 / FMT.scale
        assert abs(got - va * vb) <= bound + 1e-15


def test_geq_zero():
    backend = fc.ClearBackend()
    assert backend.reveal_bit(fp.fp_geq_zero(fp.encode(0.25, FMT, backend))) == 1
    assert backend.reveal_bit(fp.fp_geq_zero(fp.encode(-0.25, FMT, backend))) == 0
    assert backend.reveal_bit(fp.fp_geq_zero(fp.encode(0.0, FMT, backend))) == 1
    # lane-packed signs
    lanes = fc.ClearBackend(lanes=4)
    x = fp.encode_lanes([0.5, -0.5, 0.0, -0.001], FMT, lanes)
    bit = fp.fp_geq_zero(x)
    assert [lanes.reveal_bit(bit, lane) for lane in range(4)] == [1, 0, 1, 0]


def test_integer_only_format():
    fmt0 = fp.FixedPointFormat(8, 0)  # scale 1: plain integers
    backend = fc.ClearBackend()
    a = fp.encode(5.0, fmt0, backend)
    b = fp.encode(-3.0, fmt0, backend)
    assert fp.decode(fp.fp_mul(a, b)) == -15.0
    assert fp.decode(fp.fp_add(a, b)) == 2.0


def test_relu_exactness():
    backend = fc.ClearBackend()
    assert fp.decode(fp.fp_relu(fp.encode(0.75, FMT, backend))) == 0.75
    assert fp.decode(fp.fp_relu(fp.encode(-0.3, FMT, backend))) == 0.0
    rnd = random.Random(8)
    values = [rnd.uniform(-2, 2) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(values))
    x = fp.encode_lanes(values, FMT, backend)
    out = fp._lane_values(fp.fp_relu(x))
    for z, got in zip(fp._lane_values(x), out):
        assert got == (z if z >= 0 else 0)  # bitwise: input or zero encoding


def test_max_examples_and_tie_rule():
    backend = fc.ClearBackend()
    single = fp.fp_max([fp.encode(0.1, FMT, backend)])
    assert fp.decode(single) == pytest.approx(6553 / 65536)
    best = fp.fp_max([fp.encode(v, FMT, backend) for v in (-0.5, 0.25, 0.0, 0.2)])
    assert fp.decode(best) == 0.25
    with pytest.raises(ParameterError):
        fp.fp_max([])
    # ties keep the earlier element: outputs must be bitwise equal anyway
    a = fp.encode(0.125, FMT, backend)
    b = fp.encode(0.125, FMT, backend)
    assert scaled(fp.fp_max([a, b])) == scaled(a)


def test_max_matches_oracle_random_lists():
    rnd = random.Random(9)
    lists = [[rnd.uniform(-1, 1) for _ in range(4)] for _ in range(1000)]
    backend = fc.ClearBackend(lanes=len(lists))
    encs = [fp.encode_lanes([row[i] for row in lists], FMT, backend) for i in range(4)]
    out = fp._lane_values(fp.fp_max(encs))
    columns = [fp._lane_values(e) for e in encs]
    for lane in range(len(lists)):
        assert out[lane] == max(col[lane] for col in columns)


def test_format_mismatch_rejected():
    backend = fc.ClearBackend()
    a = fp.encode(0.5, FMT, backend)
    b = fp.encode(0.5, fp.FixedPointFormat(16, 8), backend)
    with pytest.raises(FormatMismatchError):
        fp.fp_add(a, b)


def test_fast_path_bit_identical_and_same_counts(fast_vs_gate):
    """The layer evaluator against the gate path at w=32: a conv layer
    with ReLU and pooling and an fc head, 100 random images, one per lane."""
    rng = np.random.default_rng(10)
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.CONVOLUTION, 1, 2, rng.normal(0, 0.5, (2, 1, 2, 2)),
                       rng.normal(0, 0.2, 2), cnn.RELU, kernel_size=2, pool_size=2),
         cnn.LayerSpec(cnn.FULLY_CONNECTED, 2, 2, rng.normal(0, 0.5, (2, 2)),
                       rng.normal(0, 0.2, 2), cnn.LINEAR)],
        input_height=3, input_width=3, fmt=FMT)
    fast, gate = fast_vs_gate(net, rng.uniform(-1, 1, (100, 1, 3, 3)))
    assert fast == gate
    assert fast[1] > 0


def _fc_spec(weights):
    return cnn.LayerSpec(cnn.FULLY_CONNECTED, len(weights), 1, np.array([weights]),
                         np.zeros(1), cnn.LINEAR)


def test_overflow_diagnostics_on_clear():
    """A product, a partial sum and a pool difference out of range each
    raise on both evaluators; so do the single operations."""
    pool = cnn.LayerSpec(cnn.CONVOLUTION, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1),
                         cnn.LINEAR, kernel_size=1, pool_size=2)
    for fast in (True, False):
        backend = fc.ClearBackend(fast_arith=fast)
        big = fp.encode(30000.0, FMT, backend)
        with pytest.raises(OverflowDiagnostic, match="multiplication"):
            cnn.fc_layer([big], _fc_spec([2.0]))
        with pytest.raises(OverflowDiagnostic, match="addition"):
            cnn.fc_layer([big, big], _fc_spec([1.0, 1.0]))
        far = cnn.EncImage([[[fp.encode(v, FMT, backend) for v in row]
                             for row in ((30000.0, -30000.0), (0.0, 0.0))]], 2, 2)
        with pytest.raises(OverflowDiagnostic, match="comparison"):
            cnn.conv_layer(far, pool)
    backend = fc.ClearBackend()
    big = fp.encode(30000.0, FMT, backend)
    with pytest.raises(OverflowDiagnostic):
        fp.fp_add(big, big)
    with pytest.raises(OverflowDiagnostic):
        fp.fp_mul(big, big)
    with pytest.raises(OverflowDiagnostic):
        fp.fp_max([big, fp.encode(-30000.0, FMT, backend)])


def test_gsw_backend_never_diagnoses(toy_params, toy_key):
    # the encrypted path cannot branch on values: it wraps silently
    backend = fc.GswBackend(toy_params, key=toy_key, seed=19, auto_refresh=True)
    small = fp.FixedPointFormat(6, 2)
    a = fp.encode(7.0, small, backend)
    out = fp.fp_add(a, fp.encode(7.0, small, backend))
    assert fp.decode(out) == wrap((28 + 28), 6) / 4


def test_fp_ops_data_oblivious():
    counts = []
    for va, vb in [(0.9, -0.9), (0.0, 0.0), (-0.5, 0.5)]:
        backend = fc.ClearBackend()
        a = fp.encode(va, FMT, backend)
        b = fp.encode(vb, FMT, backend)
        fp.fp_add(a, b)
        fp.fp_mul(a, b)
        fp.fp_relu(a)
        fp.fp_max([a, b])
        counts.append(backend.stats.nand_count)
    assert len(set(counts)) == 1


def test_gsw_fixedpoint_roundtrip(toy_params, toy_key):
    backend = fc.GswBackend(toy_params, key=toy_key, seed=20, auto_refresh=True)
    small = fp.FixedPointFormat(8, 4)
    x = fp.encode(0.5, small, backend)
    y = fp.encode(-0.25, small, backend)
    assert fp.decode(fp.fp_add(x, y)) == 0.25
    assert fp.decode(fp.fp_relu(fp.encode(-0.5, small, backend))) == 0.0
    assert fp.decode(fp.fp_mul_const(fp.encode(0.5, small, backend), 0.5)) == 0.25


@pytest.mark.parametrize("width", [10, 32])
def test_mul_fast_equals_gate_at_every_frac_position(width):
    """The product window depends on f: a one-input fc layer on the layer
    evaluator must match the circuit, values and NAND counts, at the
    lowest, middle and top f."""
    rnd = random.Random(width)
    nodes, lanes = 5, 4
    for frac in (0, width // 2, width - 1):
        fmt = fp.FixedPointFormat(width, frac)
        zbs = [rnd.randrange(fmt.min_int, fmt.max_int + 1) for _ in range(nodes)]
        reach = min(fmt.max_int, (fmt.max_int << frac) // max(1, *map(abs, zbs)))
        zas = [rnd.randrange(-reach, reach + 1) for _ in range(lanes)]
        spec = cnn.LayerSpec(cnn.FULLY_CONNECTED, 1, nodes,
                             np.array(zbs)[:, None] / fmt.scale, np.zeros(nodes), cnn.LINEAR)
        got, counts = [], []
        for fast in (True, False):
            backend = fc.ClearBackend(lanes=lanes, fast_arith=fast)
            x = fp.encode_lanes([za / fmt.scale for za in zas], fmt, backend)
            got.append([fp._lane_values(s) for s in cnn.fc_layer([x], spec).scores])
            counts.append(backend.stats.nand_count)
        want = [[(za * zb) >> frac for za in zas] for zb in zbs]
        assert got[0] == got[1] == want, fmt
        assert counts[0] == counts[1] > 0


def _op_nands(fmt, op):
    backend = fc.ClearBackend()
    a = fp.encode(0.5, fmt, backend)
    b = fp.encode(-0.25, fmt, backend)
    before = backend.stats.nand_count
    op(a, b)
    return backend.stats.nand_count - before


def test_fixedpoint_nand_budgets():
    small = fp.FixedPointFormat(10, 5)
    assert _op_nands(small, fp.fp_mul) <= 903
    assert _op_nands(FMT, fp.fp_mul) <= 9982
    for fmt in (small, FMT):
        w = fmt.total_bits
        assert _op_nands(fmt, lambda a, b: fp.fp_relu(a)) <= 2 * w + 1
        assert _op_nands(fmt, lambda a, b: fp.fp_sub(a, b)) <= 10 * w
    assert _op_nands(FMT, lambda a, b: fp.fp_max([a, b])) <= 323


_FOLD_OPS = {
    "mul": fp.fp_mul,
    "add": fp.fp_add,
    "relu": lambda a, b: fp.fp_relu(a),
    "maxfold": lambda a, b: fp.fp_max([a, b]),
}


def _gate_level_fold(kind, fmt, case):
    """NANDs and output public_pattern of one ``kind`` circuit run gate by
    gate on operands given as (value, public mask) pairs."""
    backend = fc.ClearBackend()
    a, b = (fp.FixedPointCipher(g.BitVector(
                backend.const((v >> i) & 1) if (mask >> i) & 1
                else backend.encrypt_bit((v >> i) & 1) for i in range(fmt.total_bits)), fmt)
            for v, mask in case)
    out = _FOLD_OPS[kind](a, b)
    return backend.stats.nand_count, fp.public_pattern(out)


def _assert_fold_costs_match(kind, fmt, cases):
    full = (1 << fmt.total_bits) - 1
    probed = fp.fold_costs(kind, fmt, [tuple((mask, v & mask & full) for v, mask in case)
                                       for case in cases])
    for case, got in zip(cases, probed):
        assert got == _gate_level_fold(kind, fmt, case), case


@pytest.mark.parametrize("kind", sorted(_FOLD_OPS))
def test_fold_costs_match_gate_level(kind, monkeypatch):
    """For operands with any mix of public and private bits, the fold
    probe's NAND count and output public bits equal a gate-level run's.
    A ReLU or max fold of wholly public operands folds every gate: it is
    charged 0 without building a probe, as for a public image."""
    fmt = fp.FixedPointFormat(10, 5)
    full = (1 << 10) - 1
    rnd = random.Random(kind)
    cases = [tuple((rnd.randrange(-64, 64), rnd.choice([0, full, rnd.randrange(full + 1)]))
                   for _ in range(2))
             for _ in range(30)]
    # public weights: 0, -1 (a tiny negative real), 0.5, 1 and 2
    cases += [((rnd.randrange(-64, 64), 0), (w, full)) for w in (0, -1, 16, 32, 64)]
    _assert_fold_costs_match(kind, fmt, cases)
    if kind in ("relu", "maxfold"):
        built = _count_probes(monkeypatch)
        ends = [fmt.min_int // 2, -1, 0, 1, fmt.max_int // 2]
        public = [((a, full), (b, full)) for a in ends for b in ends]
        public += [((rnd.randrange(-256, 256), full), (rnd.randrange(-256, 256), full))
                   for _ in range(10)]
        _assert_fold_costs_match(kind, fmt, public)
        assert built == []


@pytest.mark.parametrize("width, frac", [(10, 5), (32, 16), (40, 30)])
def test_fold_costs_match_gate_level_public_weights(width, frac):
    """fp_mul with a wholly public operand is charged by walking the
    constant's digit plan; the composed charge and output public bits must
    equal a gate-level run's, for extreme, power-of-two and random weights
    against private and partly public operands, on either side.  At w=40
    the product window reaches bit 69."""
    fmt = fp.FixedPointFormat(width, frac)
    full = (1 << width) - 1
    rnd = random.Random(width)
    weights = [fmt.min_int, fmt.max_int, 1, -1, 0, 1 << frac, -(1 << frac),
               1 << (width - 2), -(1 << (width - 2)), 3 << 2, -(5 << 3)]
    weights += [rnd.randrange(fmt.min_int, fmt.max_int + 1) for _ in range(6)]
    cases = []
    for k in weights:
        reach = min(fmt.max_int, (fmt.max_int << frac) // max(1, abs(k)))  # no overflow
        value = rnd.randrange(-reach, reach + 1)
        for mask in (0, rnd.randrange(full + 1), full & ~0b1011):
            cases.append(((value, mask), (k, full)))
        cases.append(((k, full), (value, 0)))        # public first operand
        cases.append(((k, full), (value, full)))     # both public: every gate folds
    _assert_fold_costs_match("mul", fmt, cases)


def _plan(layer, fmt, ic, entries, width=None, reads=None):
    """The adder-graph plan of layer's kernel entries ``entries`` on input
    channel ic, for operands of ``width`` bits (default w), each product
    read at its ``reads`` (default w bits, signed)."""
    f, w = fmt.frac_bits, fmt.total_bits
    return g.const_mul_plan(layer.kernel_constants(fmt, ic, entries),
                            w if width is None else width, f, f + w, reads)


def test_preset_kernel_products_match_scaled_mul():
    """Preset conv plans, one per input channel and entry set (w=32, over
    4 and 15 kernels), times lane-packed private operands, min_int,
    max_int, -1, 0 and 1 among them: every entry set of conv1 (corners,
    edges, interior and all between), and on each of conv2's four input
    channels the entry sets of the four corners, the four edges and the
    interior.  Each product of the shared adder graph is scaled_mul of
    its weight, bit for bit.  (Every entry set of a 5 x 5 kernel runs
    through the layer in test_layer_evaluator_matches_gate_path_5x5.)"""
    net = demo.preset_model()
    fmt = net.fmt
    rnd = random.Random(64)
    values = [fmt.min_int, fmt.max_int, -1, 0, 1] + [rnd.randrange(fmt.min_int, fmt.max_int)
                                                    for _ in range(3)]
    backend = fc.ClearBackend(lanes=len(values))
    x = fp.FixedPointCipher(g.BitVector.from_lane_ints(values, 32, backend), fmt)
    conv1, conv2 = net.layers[:2]
    first, middle, last = range(0, 1), range(0, 5), range(4, 5)  # rows a pixel meets
    shapes = [(rows, cols) for rows in (first, middle, last) for cols in (first, middle, last)]
    conv2_sets = [tuple(oc * 25 + kr * 5 + kc for oc in range(15) for kr in rows for kc in cols)
                  for rows, cols in shapes]
    conv1_sets = {e for row in cnn._kernel_entries(conv1, 28, 28) for e in row}
    assert len(conv1_sets) == 81
    cases = [(conv1, 0, entries) for entries in conv1_sets]
    cases += [(conv2, ic, entries) for ic in range(4) for entries in conv2_sets]
    zx = np.array(values, dtype=np.int64)
    for layer, ic, entries in cases:
        plan = _plan(layer, fmt, ic, entries)
        assert plan.constants == tuple(fp.float_to_scaled(layer.weights[e // 25, ic, e % 25 // 5,
                                                                        e % 5], fmt)
                                       for e in entries)
        for k, got in zip(plan.constants, fp.fp_mul_consts(x, plan)):
            assert fp._lane_values(got) == fp.scaled_mul(zx, k, fmt).tolist(), (ic, entries, k)


def test_certified_width_plan_products_match_scaled_mul():
    """conv1's interior plan (all 100 weights) for its certified 18-bit
    inputs, run on the low 18 bits of 32-bit operands: on 64 lanes, pixels
    ±1.0 (±65,536) among them, every product equals scaled_mul bit for
    bit.  The clear backend refuses an operand past 18 bits, where the
    plan would be wrong."""
    net = demo.preset_model()
    fmt, layer = net.fmt, net.layers[0]
    assert net.certificate()[0].input_bits == 18
    plan = _plan(layer, fmt, 0, range(100), 18)
    rnd = random.Random(18)
    values = [-65536, 65536, -1, 0, 1] + [rnd.randrange(-65536, 65537) for _ in range(59)]
    backend = fc.ClearBackend(lanes=len(values))
    x = fp.FixedPointCipher(g.BitVector.from_lane_ints(values, 32, backend), fmt)
    zx = np.array(values, dtype=np.int64)
    for k, got in zip(plan.constants, fp.fp_mul_consts(x, plan)):
        assert fp._lane_values(got) == fp.scaled_mul(zx, k, fmt).tolist(), k
    past = fp.FixedPointCipher(g.BitVector.from_lane_ints([1 << 17] * 64, 32, backend), fmt)
    with pytest.raises(OverflowDiagnostic, match="18-bit range"):
        fp.fp_mul_consts(past, plan)


def test_narrow_add_is_exact_where_the_sum_fits():
    """fp_sum of two 7-bit terms at width 6 of a w=10 format: the sum of
    every pair whose sum fits 6 bits is exact, its bits above bit 5 are
    that bit's wires, and it evaluates the gates of a 6-bit ripple.  On
    the clear backend a sum past 6 bits raises."""
    small = fp.FixedPointFormat(10, 5)
    pairs = [(a, b) for a in range(-40, 40) for b in range(-40, 40) if -32 <= a + b < 32]
    backend = fc.ClearBackend(lanes=len(pairs))
    x, y = (fp.FixedPointCipher(g.BitVector.from_lane_ints([p[i] for p in pairs], 10, backend),
                                small) for i in (0, 1))
    before = backend.stats.nand_count
    total = fp.fp_sum([x, y], [(7, True)] * 2, 6)
    assert fp._lane_values(total) == [a + b for a, b in pairs]
    assert all(bit is total.bits.bits[5] for bit in total.bits.bits[6:])
    assert backend.stats.nand_count - before == fp.fold_costs(
        "add", fp.FixedPointFormat(6, 0), [(fp.PRIVATE, fp.PRIVATE)])[0][0]
    with pytest.raises(OverflowDiagnostic, match="addition .* 6-bit range"):
        fp.fp_sum([fp.encode(0.75, small, backend), fp.encode(0.5, small, backend)],
                  [(7, True)] * 2, 6)
    with pytest.raises(OverflowDiagnostic, match="a sum term .* 7-bit range"):
        fp.fp_sum([fp.encode(2.0, small, backend), fp.encode(-2.0, small, backend)],
                  [(7, True)] * 2, 6)


def test_narrow_relu_is_exact_and_its_high_bits_are_public_zeros():
    """fp_relu at each width b of a w=10 format, on every value that fits
    b bits: the output is max(x, 0), its bits from b - 1 up are the
    public constant 0, and it evaluates b - 1 ANDs, one NAND each (the
    NOT of the sign is free), as fold_costs charges.  On the clear
    backend a value past b bits raises."""
    small = fp.FixedPointFormat(10, 5)
    for width in range(2, 11):
        half = 1 << (width - 1)
        values = list(range(-half, half))
        backend = fc.ClearBackend(lanes=len(values))
        x = fp.FixedPointCipher(g.BitVector.from_lane_ints(values, 10, backend), small)
        before = backend.stats.nand_count
        out = fp.fp_relu(x, width)
        assert fp._lane_values(out) == [max(z, 0) for z in values]
        assert [bit.public for bit in out.bits.bits[width - 1:]] == [0] * (11 - width)
        assert all(bit.public is None for bit in out.bits.bits[:width - 1])
        nands = backend.stats.nand_count - before
        assert nands == width - 1
        assert fp.fold_costs("relu", small, [(fp.PRIVATE, fp.PRIVATE)], width)[0] == (
            nands, (1023 ^ (half - 1), 0))
    backend = fc.ClearBackend()
    with pytest.raises(OverflowDiagnostic, match="ReLU operand .* 6-bit range"):
        fp.fp_relu(fp.encode(1.0, small, backend), 6)


SMALL = fp.FixedPointFormat(10, 5)
_PRODUCT = (6, 5, 4)  # (b_x, b_y, b_p), with f + b_p <= b_x + b_y
_PLANS = {ks: g.const_mul_plan(ks, 7, 5, 15) for ks in ((11, -7, 40), (11, 300))}

# per integer form: the gate-level op on lane-packed ciphers, decoded per
# output, and the form on the same lanes' integers
INT_FORMS = {
    "sum": (lambda a, b, c: [fp.fp_sum([a, (b, c)], [(7, True), _PRODUCT], 6)],
            lambda a, b, c: [fp.int_sum(np.stack([a, fp.int_mul(b, c, SMALL, _PRODUCT)], -1),
                                        SMALL, (7, _PRODUCT[2]), True, 6)]),
    "mul_consts": (lambda x, ks: fp.fp_mul_consts(x, _PLANS[ks]),
                   lambda x, ks: fp.int_mul(x, np.array(ks)[:, None], SMALL, (7, 10, 10))),
    "relu": (lambda x: [fp.fp_relu(x, 6)], lambda x: [fp.int_relu(x, SMALL, 6)]),
    "max": (lambda a, b, c: [fp.fp_max([a, b, c])],
            lambda a, b, c: [fp.int_max(fp.int_max(a, b, SMALL), c, SMALL)]),
}
INT_FORM_CASES = {  # form-case: per operand its lanes or a constant tuple, the failing check
    "sum-fits": ([[-20, 25, 0, -24], [-32, 31, 0, 15], [7, 7, -16, -16]], None),
    "sum-term": ([[64, 0], [1, 1], [1, 1]], "a sum term .* 7-bit range"),
    "sum-x": ([[0, 0], [1, 32], [1, 1]], "a multiplication operand .* 6-bit range"),
    "sum-y": ([[0, 0], [1, 1], [-17, 1]], "a multiplication operand .* 5-bit range"),
    "sum-product": ([[0, 0], [1, 31], [1, 15]], "multiplication .* 4-bit range"),
    "sum-root": ([[0, 30], [1, 31], [1, 7]], "addition .* 6-bit range"),
    "mul_consts-fits": ([[-64, 63, -1, 0, 1, 37], (11, -7, 40)], None),
    "mul_consts-x": ([[-64, 64], (11, -7, 40)], "a multiplication operand .* 7-bit range"),
    "mul_consts-product": ([[-1, 63], (11, 300)], "multiplication .* w=10 range"),
    "relu-fits": ([[-32, -1, 0, 1, 31]], None),
    "relu-x": ([[-32, 32]], "a ReLU operand .* 6-bit range"),
    "max-fits": ([[-300, 200, 5, 7], [200, -300, 5, -8], [100, -100, 5, 511]], None),
    "max-first": ([[0, -300], [1, 300], [0, 0]], "comparison .* w=10 range"),
    "max-second": ([[0, 0], [1, 2], [0, -511]], "comparison .* w=10 range"),
}


@pytest.mark.parametrize("case", INT_FORM_CASES)
def test_integer_forms_are_the_clear_backend_checks(case):
    """Each integer form gives the gate-level op's decoded result on
    multi-lane clear operands, and past a width both raise the same
    OverflowDiagnostic."""
    (operands, failure), form = INT_FORM_CASES[case], case.split("-")[0]
    gate, integer = INT_FORMS[form]
    lanes = len(operands[0])
    backend = fc.ClearBackend(lanes=lanes)
    ciphers = [v if isinstance(v, tuple) else
               fp.FixedPointCipher(g.BitVector.from_lane_ints(v, 10, backend), SMALL)
               for v in operands]
    ints = [v if isinstance(v, tuple) else np.array(v, dtype=np.int64) for v in operands]
    if failure is None:
        assert [fp._lane_values(out) for out in gate(*ciphers)] == \
            [out.tolist() for out in integer(*ints)]
        return
    messages = []
    for run, args in ((gate, ciphers), (integer, ints)):
        with pytest.raises(OverflowDiagnostic, match=failure) as exc:
            run(*args)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@functools.cache
def _preset_plans() -> dict:
    """Every plan a preset classify makes, as it makes them: per (layer,
    input channel, entry set), the plan of those kernel entries at the
    layer's certified input width, each product read at its leaf width."""
    net = demo.preset_model()
    plans, side = {}, net.input_height
    for i, (layer, certificate) in enumerate(zip(net.layers, net.certificate())):
        side = 1 if layer.kind == cnn.FULLY_CONNECTED else side
        sets = {e for row in cnn._kernel_entries(layer, side, side) for e in row}
        widths = cnn._widths(layer, net.fmt, certificate)
        for ic in range(layer.in_channels):
            for entries in sets:
                plans[i, ic, entries] = _plan(layer, net.fmt, ic, entries, certificate.input_bits,
                                              cnn._kernel_reads(layer, widths, ic, entries))
        side = (side - layer.kernel_size + 1) // layer.pool_size
    return plans


def test_preset_entry_set_plans_are_pinned():
    """A digest of every preset entry-set plan's steps and targets, in
    (layer, input channel, entries) order: 81 sets for conv1, 4 x 81 for
    conv2 and one per fc feature.  A faster planner must plan the same
    graphs."""
    plans = _preset_plans()
    assert len(plans) == 81 + 4 * 81 + 240
    digest = hashlib.sha256()
    for key in sorted(plans):
        plan = plans[key]
        digest.update(repr((key, [tuple(st) for st in plan.steps], plan.targets)).encode())
    assert digest.hexdigest() == "72cd705e7fee4b746dc0dc109cb27a0f2a3c050d7889feca2cafd456d3e4cb2d"


def test_preset_kernel_plan_sizes():
    """The preset model's conv plans, one per input channel and entry set
    (81 sets of a 5 x 5 kernel): the interior set's plan reads every
    weight, with 100 adder nodes for conv1's 100 weights and 1,470 over
    conv2's four input channels (1,500 weights), as one plan per input
    channel had; over all sets, 3,013 nodes for conv1 and 38,162 for
    conv2.  One plan per kernel took 2,098 over both layers."""
    plans = _preset_plans()
    for layer, out, interior, total in ((0, 4, [100], 3013), (1, 15, [367, 364, 371, 368], 38162)):
        full = tuple(range(out * 25))
        assert [len(plans[layer, ic, full].steps) for ic in range(len(interior))] == interior
        assert sum(len(plan.steps) for key, plan in plans.items() if key[0] == layer) == total
    assert sum(interior) == 1470


def _count_probes(monkeypatch, limit=None):
    """An empty fold memo (with ``limit`` entries at most), and a list
    that grows by one per FoldProbe built."""
    built = []
    monkeypatch.setattr(fp, "_FOLDS", {})
    if limit is not None:
        monkeypatch.setattr(fp, "_FOLDS_LIMIT", limit)
    monkeypatch.setattr(fp, "FoldProbe", lambda: built.append(1) or fc.FoldProbe())
    return built


def test_fold_memo_runs_each_circuit_once(monkeypatch):
    """Each op key (a fold_costs pair, a sum_costs call) and each
    mul_const step key runs one FoldProbe, once: a second identical call
    builds none, and a step or a sum keeps one entry, none per adder."""
    built = _count_probes(monkeypatch)
    fmt = fp.FixedPointFormat(8, 4)
    pairs = [(fp.PRIVATE, fp.PRIVATE), ((0b1111, 0b0101), fp.PRIVATE)]
    first = fp.fold_costs("add", fmt, pairs)
    assert len(built) == 2
    assert fp.fold_costs("add", fmt, pairs) == first
    assert len(built) == 2
    step = SimpleNamespace(negative=True, carries=1, top=4, column=0)
    xs, ts = (4, fp.PRIVATE), (4, (0b1010, 0b0010))
    first = fp._step_cost(step, xs, ts)
    assert (len(built), len(fp._FOLDS)) == (3, 3)
    assert fp._step_cost(step, xs, ts) == first
    assert len(built) == 3
    patterns = [fp.PRIVATE, ((0xf0, 0), fp.PRIVATE), (0b11, 0b01)]
    widths = [(6, True), (5, 4, 5), (3, False)]
    first = fp.sum_costs(fmt, patterns, widths, 7)
    assert (len(built), len(fp._FOLDS)) == (4, 4)
    assert fp.sum_costs(fmt, patterns, widths, 7) == first
    assert len(built) == 4


def test_fold_memo_clears_at_its_limit(monkeypatch):
    """Past its limit the memo starts over instead of growing."""
    built = _count_probes(monkeypatch, limit=3)
    fmt = fp.FixedPointFormat(8, 4)
    pairs = [((0b1111, value), fp.PRIVATE) for value in range(5)]
    first = fp.fold_costs("add", fmt, pairs)
    assert len(built) == 5
    assert len(fp._FOLDS) == 2  # cleared at the fourth entry
    assert fp.fold_costs("add", fmt, pairs) == first
    assert len(built) == 10
    assert len(fp._FOLDS) <= 3


def test_fold_memo_keeps_its_limit_when_a_step_keeps_its_cells(monkeypatch):
    """A mul_const step and a sum keep one entry each, not one per
    column or adder, so a memo of two holds at its limit through a pair of
    ops, a step and a sum, and each gives its first result again."""
    built = _count_probes(monkeypatch, limit=2)
    fmt = fp.FixedPointFormat(8, 4)
    pairs = [(fp.PRIVATE, fp.PRIVATE), ((0b1111, 0b0101), fp.PRIVATE)]
    step = SimpleNamespace(negative=True, carries=1, top=4, column=0)
    xs, ts = (4, fp.PRIVATE), (4, (0b1010, 0b0010))
    patterns, widths = [fp.PRIVATE, ((0xf0, 0), fp.PRIVATE)], [(6, True), (5, 4, 5)]
    first = (fp.fold_costs("add", fmt, pairs), fp._step_cost(step, xs, ts),
             fp.sum_costs(fmt, patterns, widths, 7))
    assert len(built) == 4
    assert len(fp._FOLDS) <= 2
    assert (fp.fold_costs("add", fmt, pairs), fp._step_cost(step, xs, ts),
            fp.sum_costs(fmt, patterns, widths, 7)) == first
    assert len(fp._FOLDS) <= 2


def _chain_nands(k, fmt):
    """NANDs of the running-sum shift-and-add over k's non-adjacent-form
    digits on a private operand at fmt's window, the reference the
    one-constant adder graph may not exceed: the lowest +1 digit's term
    a·2^j is a wire, and every other digit, lowest first, adds or
    subtracts a·2^j into one running sum, which forms sums only from
    min(f, next digit) and stops where it provably fits.  Each step is
    charged its cached cost."""
    w, lo, hi = fmt.total_bits, fmt.frac_bits, fmt.frac_bits + fmt.total_bits
    digits = [(j, d) for j, d in g._naf(k) if j < hi]
    start = next((j for j, d in digits if d > 0), None)
    rest = [(j, d) for j, d in digits if j != start]
    steps, multiplier = [], 0 if start is None else 1 << start
    for i, (j, d) in enumerate(rest):
        multiplier += d << j
        end = min(g._product_width(multiplier, w), hi)
        following = rest[i + 1][0] if i + 1 < len(rest) else hi
        steps.append((j, end, SimpleNamespace(
            negative=d < 0, carries=max(0, min(lo, following, end - 1) - j), top=end, column=j)))
    nands = 0
    acc = [0] * hi if start is None else [0] * start + [None] * (hi - start)
    top = 0 if start is None else start + w  # the running sum's own bits
    for j, end, st in steps:
        xs = acc[j:max(top, j + 1)][:end - j]
        cost, out = fp._step_cost(st, (len(xs), fp._pattern_of(xs)), (min(w, end - j), fp.PRIVATE))
        nands += cost
        top = end
        public, value = out
        acc[j + st.carries:end] = [value >> i & 1 if public >> i & 1 else None
                                   for i in range(end - j - st.carries)]
        acc[end:hi] = [acc[end - 1]] * (hi - end)
    return nands


def test_one_constant_plan_never_costs_more_than_the_digit_chain():
    """fp_mul by each weight of the micro (w=10) and preset (w=32) models
    evaluates no more NANDs on a private operand than the digit chain."""
    for net in (demo.micro_model(), demo.preset_model()):
        fmt = net.fmt
        full = (1 << fmt.total_bits) - 1
        ks = sorted({int(k) for layer in net.layers for k in layer.scaled(fmt)[0].ravel()})
        costs = fp.fold_costs("mul", fmt, [(fp.PRIVATE, (full, k & full)) for k in ks])
        for k, (nands, _) in zip(ks, costs):
            assert nands <= _chain_nands(k, fmt), k


README = Path(__file__).resolve().parent.parent / "README.md"


def _spread(costs) -> str:
    return f"{min(costs):,} / {round(sum(costs) / len(costs)):,} / {max(costs):,}"


def test_readme_public_weight_mul_row():
    """The README's NANDs for ``fp_mul`` by a public weight are what
    fold_costs charges: on private operands (the multiplier array), and min /
    mean / max over the micro model's weights at w=10 and the preset
    model's at w=32, then with the operand at its layer's certified input
    width."""
    row = next(line for line in README.read_text().splitlines()
               if line.strip().startswith("| `fp_mul` by a public weight |"))
    want = []
    for net in (demo.micro_model(), demo.preset_model()):
        fmt = net.fmt
        full = (1 << fmt.total_bits) - 1
        private = fp.fold_costs("mul", fmt, [(fp.PRIVATE, fp.PRIVATE)])[0][0]
        costs, certified = [], []
        for layer, widths in zip(net.layers, net.certificate()):
            pairs = [(fp.PRIVATE, (full, int(k) & full)) for k in layer.scaled(fmt)[0].ravel()]
            costs += [n for n, _ in fp.fold_costs("mul", fmt, pairs)]
            certified += [n for n, _ in fp.fold_costs(
                "mul", fmt, pairs, (widths.input_bits, widths.input_bits, fmt.total_bits))]
        want += [f"{private:,}", _spread(costs)]
    want.append(_spread(certified))
    assert [cell.strip() for cell in row.strip().strip("|").split("|")[1:]] == want


def test_readme_private_weight_mul_cell():
    """The README's certified-widths ``fp_mul`` cell: what fold_costs
    charges for the preset model's private-weight multiply in each layer,
    at the (b_x, b_w, b_p) of the walk over the weights' bit widths."""
    row = next(line for line in README.read_text().splitlines()
               if line.strip().startswith("| `fp_mul` |"))
    net = demo.preset_model()
    costs = [fp.fold_costs("mul", net.fmt, [(fp.PRIVATE, fp.PRIVATE)], c.mul_bits)[0][0]
             for c in net.certificate(encrypt_weights=True)]
    assert row.strip().strip("|").split("|")[-1].strip() == " / ".join(f"{n:,}" for n in costs)


def _kernel_nands(layer, fmt, shape, certificate) -> int:
    """The layer evaluator's charge of a layer's shared multiplies
    (``cnn._kernel_charge``), planned at the widths of ``certificate``
    (None: w-bit inputs, each product read at w bits), over every pixel
    of a private input of ``shape`` (c, h, w)."""
    cells = np.empty(shape, dtype=object)
    cells.fill(fp.PRIVATE)
    costs = cnn._kernel_charge(layer, fmt, cells, cnn._widths(layer, fmt, certificate))
    entries = cnn._kernel_entries(layer, *shape[1:])
    return sum(costs[ic, entries[r][c], fp.PRIVATE][0] for ic, r, c in np.ndindex(shape))


def test_readme_kernel_shared_mul_row():
    """The README's mean NANDs per conv product of the preset model, on
    private inputs: one digit chain per product (fold_costs of each weight,
    once per window), and the shared adder graphs (the layer evaluator's
    charge of the conv multiplies), planned for w-bit inputs read at w
    bits and at the layer's certified widths: its input width, and each
    product built only to the bits its sum reads."""
    row = next(line for line in README.read_text().splitlines()
               if line.strip().startswith("| `fp_mul_consts`, per conv product |"))
    net = demo.preset_model()
    fmt = net.fmt
    full = (1 << fmt.total_bits) - 1
    channels, side = net.input_channels, net.input_height
    chain = shared = certified = products = 0
    for layer, widths in zip(net.layers[:2], net.certificate()):
        windows = (side - layer.kernel_size + 1) ** 2
        ks = [int(k) for k in layer.scaled(fmt)[0].ravel()]
        costs = fp.fold_costs("mul", fmt, [(fp.PRIVATE, (full, k & full)) for k in ks])
        chain += windows * sum(n for n, _ in costs)
        shared += _kernel_nands(layer, fmt, (channels, side, side), None)
        certified += _kernel_nands(layer, fmt, (channels, side, side), widths)
        products += windows * len(ks)
        channels, side = layer.out_channels, (side - layer.kernel_size + 1) // layer.pool_size
    want = ["—", "—"] + [f"{round(n / products):,}" for n in (chain, shared, certified)]
    assert [cell.strip() for cell in row.strip().strip("|").split("|")[1:]] == want
