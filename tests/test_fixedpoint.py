import random

import numpy as np
import pytest

from gatecnn import cnn
from gatecnn import fhe_core as fc
from gatecnn import fixedpoint as fp
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
        far = cnn.encrypt_image(np.array([[30000.0, -30000.0], [0.0, 0.0]]), FMT, backend)
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


def test_detached_decryption_oracle(toy_params, toy_key):
    sender = fc.GswBackend(toy_params, key=toy_key, seed=22)
    server = fc.GswBackend(toy_params, seed=23)
    small = fp.FixedPointFormat(6, 3)
    x = fp.encode(0.625, small, sender)
    moved = fp.FixedPointCipher(
        type(x.bits)([fc.EncBit(server, ciphertext=b.ciphertext) for b in x.bits.bits]),
        small)
    assert fp.decode(moved, sk_oracle=toy_key) == 0.625


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
