import itertools
import random
import tracemalloc

import numpy as np
import pytest

from gatecnn import fhe_core as fc
from gatecnn import fixedpoint as fp
from gatecnn import gates as g
from gatecnn.errors import ParameterError, WidthMismatchError


def wrap(v, w):
    v &= (1 << w) - 1
    return v - (1 << w) if v >> (w - 1) else v


@pytest.fixture()
def clear():
    return fc.ClearBackend()


def test_derived_gate_truth_tables(clear):
    cases = {
        g.and_gate: [0, 0, 0, 1],
        g.xor_gate: [0, 1, 1, 0],
    }
    for fn, want in cases.items():
        got = [clear.reveal_bit(fn(clear.const(a), clear.const(b)))
               for a in (0, 1) for b in (0, 1)]
        assert got == want, fn.__name__
    assert clear.reveal_bit(g.not_gate(clear.const(0))) == 1
    assert clear.reveal_bit(g.not_gate(g.not_gate(clear.const(1)))) == 1


def test_gate_nand_budgets(clear):
    budgets = {g.not_gate: 1, g.and_gate: 2, g.xor_gate: 4}
    for fn, budget in budgets.items():
        before = clear.stats.nand_count
        if fn is g.not_gate:
            fn(clear.encrypt_bit(1))
        else:
            fn(clear.encrypt_bit(1), clear.encrypt_bit(0))
        used = clear.stats.nand_count - before
        assert used <= budget, (fn.__name__, used)


def test_full_adder_all_rows(clear):
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                s, cout = g.full_adder(clear.const(a), clear.const(b), clear.const(cin))
                assert clear.reveal_bit(s) + 2 * clear.reveal_bit(cout) == a + b + cin


def test_full_adder_nand_count(clear):
    before = clear.stats.nand_count
    g.full_adder(clear.encrypt_bit(1), clear.encrypt_bit(1), clear.encrypt_bit(1))
    assert clear.stats.nand_count - before == 9


def test_add_examples(clear):
    a = g.BitVector.from_int(3, 8, clear)
    b = g.BitVector.from_int(5, 8, clear)
    assert g.add(a, b).to_int() == 8
    # two's complement wraparound
    a = g.BitVector.from_int(127, 8, clear)
    b = g.BitVector.from_int(1, 8, clear)
    assert g.add(a, b).to_int() == -128


def test_sub_examples(clear):
    assert g.sub(g.BitVector.from_int(5, 8, clear),
                 g.BitVector.from_int(3, 8, clear)).to_int() == 2
    minus_one = g.sub(g.BitVector.from_int(0, 8, clear),
                      g.BitVector.from_int(1, 8, clear))
    assert minus_one.to_int() == -1
    assert all(clear.reveal_bit(bit) == 1 for bit in minus_one.bits)


def test_add_sub_exhaustive_width6():
    """Every pair at each width from 1 to 6: add and sub wrap, and where
    x - y fits the width, less_than and compare read its sign and zero."""
    for width in range(1, 7):
        half = 1 << (width - 1)
        pairs = [(x, y) for x in range(-half, half) for y in range(-half, half)]
        backend = fc.ClearBackend(lanes=len(pairs))
        a = g.BitVector.from_lane_ints([p[0] for p in pairs], width, backend)
        b = g.BitVector.from_lane_ints([p[1] for p in pairs], width, backend)
        sums = g.add(a, b).to_lane_ints()
        diffs = g.sub(a, b).to_lane_ints()
        lt, cmp_result = g.less_than(a, b), g.compare(a, b)
        for lane, ((x, y), s, d) in enumerate(zip(pairs, sums, diffs)):
            assert s == wrap(x + y, width), (width, x, y)
            assert d == wrap(x - y, width), (width, x, y)
            if -half <= x - y < half:
                assert backend.reveal_bit(lt, lane) == (x < y), (width, x, y)
                assert backend.reveal_bit(cmp_result.is_negative, lane) == (x < y), (width, x, y)
                assert backend.reveal_bit(cmp_result.is_zero, lane) == (x == y), (width, x, y)


def test_width_mismatch_rejected(clear):
    a = g.BitVector.from_int(1, 4, clear)
    b = g.BitVector.from_int(1, 5, clear)
    for op in (g.add, g.sub, g.compare, g.less_than,
               lambda x, y: g.mux(clear.const(1), x, y)):
        with pytest.raises(WidthMismatchError):
            op(a, b)


def test_mul_examples(clear):
    a = g.BitVector.from_int(3, 8, clear)
    b = g.BitVector.from_int(5, 8, clear)
    p = g.mul_wallace(a, b)
    assert p.width == 16
    assert p.to_int() == 15
    assert g.mul_wallace(g.BitVector.from_int(-4, 8, clear),
                         g.BitVector.from_int(6, 8, clear)).to_int() == -24


def test_mul_exhaustive_width4():
    pairs = [(x, y) for x in range(-8, 8) for y in range(-8, 8)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([p[0] for p in pairs], 4, backend)
    b = g.BitVector.from_lane_ints([p[1] for p in pairs], 4, backend)
    wallace = g.mul_wallace(a, b).to_lane_ints()
    school = g.mul_schoolbook(a, b).to_lane_ints()
    for (x, y), p, q in zip(pairs, wallace, school):
        assert p == x * y == q


@pytest.mark.parametrize("width", range(1, 7))
def test_mul_window_exhaustive(width):
    """For a width-bit a and every n-bit b, n from 1 to 6, every product
    window [lo, hi) of the m x n array equals bits lo..hi-1 of x*y."""
    for n in range(1, 7):
        pairs = [(x, y) for x in range(-(1 << width - 1), 1 << width - 1)
                 for y in range(-(1 << n - 1), 1 << n - 1)]
        backend = fc.ClearBackend(lanes=len(pairs))
        a = g.BitVector.from_lane_ints([p[0] for p in pairs], width, backend)
        b = g.BitVector.from_lane_ints([p[1] for p in pairs], n, backend)
        exact = _lane_masks([x * y for x, y in pairs], width + n)
        for lo in range(width + n):
            for hi in range(lo + 1, width + n + 1):
                got = g.mul_wallace(a, b, lo=lo, hi=hi)
                assert [bit.clear_value for bit in got.bits] == exact[lo:hi], (width, n, lo, hi)


def _lane_masks(values, width):
    """Bit i of values[lane] at bit lane of mask i."""
    return [sum(((v >> i) & 1) << lane for lane, v in enumerate(values))
            for i in range(width)]


# Windows [lo, hi) of an m x n mul_wallace: its NANDs, and the NAND depth
# the classic Wallace tree it replaced had there.
MUL_SHAPES = [
    (10, 10, 5, 15, 848, 47),  # a w-bit fp_mul at w=10, f=5
    (32, 32, 16, 48, 9505, 118),  # at w=32, f=16
    (7, 6, 5, 11, 365, 36),  # the micro model: 7-bit pixels, 6-bit weights
    (18, 16, 16, 32, 2933, 81),  # the preset model's conv1
    (21, 17, 16, 37, 3689, 91),  # conv2
    (28, 16, 16, 43, 4660, 103),  # fc
]

# The preset model's private-weight multiplies (b_x, b_w, [f, f + b_p)).
PRESET_MUL_SHAPES = [shape[:4] for shape in MUL_SHAPES[3:]]


@pytest.mark.parametrize("m, n, lo, hi", PRESET_MUL_SHAPES)
def test_mul_wide_rectangular_windows_exact(m, n, lo, hi):
    """At the preset model's private-weight shapes, bits [lo, hi) of x·y for
    random operands and every pair of the extremes -2^(b-1), ±(2^(b-1) - 1)
    and 0."""
    rnd = random.Random(m * 100 + n)
    tm, tn = 1 << (m - 1), 1 << (n - 1)
    pairs = [(x, y) for x in (-tm, 1 - tm, tm - 1, 0) for y in (-tn, 1 - tn, tn - 1, 0)]
    pairs += [(rnd.randrange(-tm, tm), rnd.randrange(-tn, tn)) for _ in range(200)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([x for x, _ in pairs], m, backend)
    b = g.BitVector.from_lane_ints([y for _, y in pairs], n, backend)
    got = g.mul_wallace(a, b, lo=lo, hi=hi)
    assert [bit.clear_value for bit in got.bits] == \
        _lane_masks([x * y for x, y in pairs], hi)[lo:]


class _DeepBit(fc.EncBit):
    __slots__ = ("depth",)


class DepthProbe(fc.FoldProbe):
    """A FoldProbe whose private bits carry their NAND depth: 0 for an
    input, one more than the deeper operand for a NAND's output (a public
    constant counts as depth 0)."""

    def _bit(self, depth: int) -> _DeepBit:
        bit = _DeepBit(self)
        bit.depth = depth
        return bit

    def encrypt_bit(self, bit: int) -> _DeepBit:
        return self._bit(0)

    def nand(self, a, b) -> _DeepBit:
        super().nand(a, b)
        return self._bit(max(getattr(a, "depth", 0), getattr(b, "depth", 0)) + 1)


@pytest.mark.parametrize("m, n, lo, hi, _, wallace_depth", MUL_SHAPES)
def test_mul_wallace_no_deeper_than_the_wallace_tree(m, n, lo, hi, _, wallace_depth):
    """Each column's adders take its earliest-ready bits, so the circuit
    is no deeper than the classic Wallace tree was (a first-in-first-out
    order within a column is about twice as deep or more)."""
    probe = DepthProbe()
    out = g.mul_wallace(g.BitVector.from_int(0, m, probe, encrypt=True),
                        g.BitVector.from_int(0, n, probe, encrypt=True), lo=lo, hi=hi)
    assert max(bit.depth for bit in out.bits) <= wallace_depth


def _word_range(n: int, signed: bool) -> range:
    return range(-(1 << n - 1), 1 << n - 1) if signed else range(1 << n)


def _sum_cases(count: int):
    """(shapes, publics) of ``count`` words for sum_words: each shape is
    (bits, signed), each public a (mask, value) pair over the word's bits:
    every bit private; the first word a public constant (its least, zero
    and greatest value); each word's bit 0 public; the first word's top
    bit a public 0."""
    shapes_1_to_4 = [(n, signed) for n in range(1, 5) for signed in (False, True)]
    for shapes in itertools.combinations_with_replacement(shapes_1_to_4, count):
        private = [(0, 0)] * count
        yield shapes, private
        n, signed = shapes[0]
        full = (1 << n) - 1
        for v in sorted({min(_word_range(*shapes[0])), 0, max(_word_range(*shapes[0]))}):
            yield shapes, [(full, v & full)] + private[1:]
        yield shapes, [(1, i % 2) for i in range(count)]
        yield shapes, [(1 << n - 1, 0)] + private[1:]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_sum_words_exhaustive(count):
    """For up to 3 words of 1 to 4 bits, unsigned and signed, some of
    whose bits are public, and every value of their private bits at once
    (one lane each): sum_words gives the sum modulo 2^R, at the root's
    signed bits R and at two bits fewer.  The fold charge
    (fixedpoint.sum_costs) equals the NANDs the gates evaluate, and its
    output public_pattern is theirs."""
    fmt = fp.FixedPointFormat(8, 0)
    for shapes, publics in _sum_cases(count):
        private = [[i for i in range(n) if not mask >> i & 1]
                   for (n, _), (mask, _) in zip(shapes, publics)]
        lanes = 1 << sum(map(len, private))
        # lane l's private bits are the bits of l, word by word, low first
        values, shift = [[] for _ in range(lanes)], 0
        for (n, signed), (mask, value), bits in zip(shapes, publics, private):
            for lane in range(lanes):
                v = value
                for j, i in enumerate(bits):
                    v |= (lane >> shift + j & 1) << i
                values[lane].append(v - (v >> n - 1 << n) if signed else v)
            shift += len(bits)
        totals = [sum(v) for v in values]
        root = max(max(totals), ~min(totals)).bit_length() + 1
        for width in sorted({root, max(1, root - 2)}):
            backend = fc.ClearBackend(lanes=lanes)
            words = []
            for k, ((n, signed), (mask, value)) in enumerate(zip(shapes, publics)):
                lane_bits = _lane_masks([v[k] for v in values], n)
                words.append(([backend.const(value >> i & 1) if mask >> i & 1
                               else backend.from_mask(lane_bits[i]) for i in range(n)], signed))
            out = g.sum_words(words, width, backend)
            case = (shapes, publics, width)
            assert [bit.clear_value for bit in out] == _lane_masks(totals, width), case
            states = [bit.public for bit in out]
            charge = fp.sum_costs(fmt, publics, shapes, width)
            assert charge == (backend.stats.nand_count,
                              fp._pattern_of(states + states[-1:] * (8 - width))), case


def test_sum_costs_of_long_columns_equal_the_gates(monkeypatch):
    """Columns far longer than three bits: on 40 random sets of 10 to 60
    words of 1 to 12 bits, some of their bits public, the fold charge
    equals the NANDs that sum_words evaluates gate by gate on a 4-lane
    clear backend with random private bits, and its output public_pattern
    is theirs, with the fold memo empty and then full; the lanes hold the
    sums modulo 2^width."""
    rng = random.Random(5)
    fmt = fp.FixedPointFormat(16, 0)
    lanes = 4
    cases = []
    for _ in range(40):
        patterns, shapes, masks = [], [], []
        for _ in range(rng.randint(10, 60)):
            n = rng.randint(1, 12)
            mask = rng.getrandbits(n) if rng.random() < 0.3 else 0
            patterns.append((mask, rng.getrandbits(n) & mask))
            shapes.append((n, rng.random() < 0.5))
            masks.append([rng.getrandbits(lanes) for _ in range(n)])
        cases.append((patterns, shapes, masks, rng.randint(1, 16)))
    monkeypatch.setattr(fp, "_FOLDS", {})
    for _ in range(2):
        for patterns, shapes, masks, width in cases:
            backend = fc.ClearBackend(lanes=lanes)
            words = [([backend.const(value >> i & 1) if public >> i & 1 else backend.from_mask(m)
                       for i, m in enumerate(lane_masks)], signed)
                     for (public, value), (_, signed), lane_masks in zip(patterns, shapes, masks)]
            out = g.sum_words(words, width, backend)
            totals = [sum(g.BitVector(bits).to_int(lane) if signed else
                          g.BitVector([*bits, backend.const(0)]).to_int(lane)
                          for bits, signed in words) for lane in range(lanes)]
            assert [bit.clear_value for bit in out] == _lane_masks(totals, width)
            states = [bit.public for bit in out]
            assert fp.sum_costs(fmt, patterns, shapes, width) == (
                backend.stats.nand_count, fp._pattern_of(states + states[-1:] * (16 - width)))


def test_sum_costs_of_products_equal_the_gates():
    """Sums with product terms at encrypted-weight widths: a private bias
    and products of an input, private, partly public (a ReLU output's
    public top zeros, a public low bit) or wholly public, with a private
    weight read at b_y < w bits.  On 30 random sets, fp_sum on a 6-lane
    clear backend evaluates the NANDs that sum_costs charges, its output
    has the public_pattern charged, and its lanes hold the exact sums."""
    rng = random.Random(11)
    fmt = fp.FixedPointFormat(12, 4)
    w, f, lanes = fmt.total_bits, fmt.frac_bits, 6
    b_x, b_y, b_p, bias_bits, bits = 7, 5, 8, 5, 11
    relu = (((1 << w) - 1) >> b_x - 1 << b_x - 1, 0)   # bits from b_x - 1 up: public 0

    def lane_cipher(backend, values, pattern):
        masks = _lane_masks(values, w)
        return fp.FixedPointCipher(g.BitVector(
            backend.const(pattern[1] >> i & 1) if pattern[0] >> i & 1
            else backend.from_mask(masks[i]) for i in range(w)), fmt)

    for _ in range(30):
        backend = fc.ClearBackend(lanes=lanes)
        bias = [rng.randrange(-16, 16) for _ in range(lanes)]
        terms, patterns, total = [lane_cipher(backend, bias, fp.PRIVATE)], [fp.PRIVATE], bias
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["private", "relu", "low", "public"])
            if kind == "public":
                x = [rng.randrange(0, 64)] * lanes
                x_pattern = ((1 << w) - 1, x[0])
            else:
                x = [rng.randrange(0, 64) | (kind == "low") for _ in range(lanes)]
                x_pattern = {"private": fp.PRIVATE, "relu": relu,
                             "low": (relu[0] | 1, 1)}[kind]
            y = [rng.randrange(-16, 16) for _ in range(lanes)]
            terms.append((lane_cipher(backend, x, x_pattern), lane_cipher(backend, y, fp.PRIVATE)))
            patterns.append((x_pattern, fp.PRIVATE))
            total = [t + (a * b >> f) for t, a, b in zip(total, x, y)]
        widths = [(bias_bits, True)] + [(b_x, b_y, b_p)] * (len(terms) - 1)
        out = fp.fp_sum(terms, widths, bits)
        assert fp.decode_lanes(out) == [t / fmt.scale for t in total]
        charge = fp.sum_costs(fmt, patterns, widths, bits)
        assert charge == (backend.stats.nand_count, fp.public_pattern(out))


def test_sum_words_gate_trace_depends_on_shapes_only():
    """Two different private inputs, the same words and public bits: the
    same gates on the same operands, in the same order."""
    traces = []
    for values in ((5, -3, 200, 1), (-8, 7, 13, 0)):
        backend = _TracingBackend()
        words = [(g.BitVector.from_int(v, n, backend, encrypt=True).bits, signed)
                 for v, (n, signed) in zip(values, ((4, True), (4, True), (8, False), (1, False)))]
        words.append(([backend.const(1), backend.encrypt_bit(values[0] & 1)], True))
        g.sum_words(words, 9, backend)
        traces.append(backend.trace)
    assert traces[0] == traces[1]
    assert traces[0]


@pytest.mark.parametrize("width", range(1, 7))
def test_mul_const_exhaustive(width):
    """For every k in [-2^width, 2^width] and every window [lo, hi) with hi
    up to 2·width + 1, mul_const gives bits lo..hi-1 of a·k modulo 2^hi for
    every width-bit a at once (one lane each)."""
    half = 1 << (width - 1)
    values = list(range(-half, half))
    backend = fc.ClearBackend(lanes=len(values))
    a = g.BitVector.from_lane_ints(values, width, backend)
    for k in range(-2 * half, 2 * half + 1):
        for hi in range(1, 2 * width + 2):
            want = _lane_masks([v * k for v in values], hi)
            for lo in range(hi):
                got = g.mul_const(a, k, lo, hi)
                assert [bit.clear_value for bit in got.bits] == want[lo:], (k, lo, hi)


def test_mul_const_rejects_bad_window(clear):
    a = g.BitVector.from_int(1, 4, clear)
    for lo, hi in ((0, 0), (3, 2), (-1, 4)):
        with pytest.raises(ParameterError):
            g.mul_const(a, 3, lo, hi)


class _TracingBackend(fc.ClearBackend):
    """Records each evaluated NAND as the serial numbers of its operands
    (a public constant as its value)."""

    def __init__(self):
        super().__init__()
        self.serial = {}
        self.bits = []  # keeps every numbered bit alive, so ids stay unique
        self.trace = []

    def _number(self, bit):
        self.serial[id(bit)] = len(self.bits)
        self.bits.append(bit)
        return bit

    def encrypt_bit(self, bit):
        return self._number(super().encrypt_bit(bit))

    def nand(self, a, b):
        self.trace.append(tuple(self.serial.get(id(x), x.public) for x in (a, b)))
        return self._number(super().nand(a, b))


def test_mul_const_gate_trace_depends_on_k_only():
    """Two private operands, the same constants: the same gates on the
    same operands, in the same order."""
    traces = []
    for x in (37, -90):
        backend = _TracingBackend()
        a = g.BitVector.from_int(x, 8, backend, encrypt=True)
        for k in (0, 1, -1, 2, 93, -93, 127, -128, 22):
            g.mul_const(a, k, 4, 12)
        traces.append(backend.trace)
    assert traces[0] == traces[1]
    assert traces[0]


@pytest.mark.parametrize("width", [6, 8, 10])
def test_mul_const_never_costs_more_than_folded_wallace(width):
    """At the fixed-point window [f, f+w), a private operand times each
    public w-bit k: the shift-and-add circuit evaluates no more NANDs than
    the mul_wallace array with k's bits folded in, and under half as many on
    average."""
    f, mask, half = width // 2, (1 << width) - 1, 1 << (width - 1)
    ks = range(-half, half)
    wallace, const = [], []
    for k in ks:
        probe = fc.FoldProbe()
        a = g.BitVector.from_int(0, width, probe, encrypt=True)
        g.mul_wallace(a, g.BitVector.from_int(k & mask, width, probe), f, f + width)
        wallace.append(probe.nand_count)
        backend = fc.ClearBackend()
        g.mul_const(g.BitVector.from_int(0, width, backend, encrypt=True), k, f, f + width)
        const.append(backend.stats.nand_count)
    assert all(c <= w for c, w in zip(const, wallace))
    assert 2 * sum(const) < sum(wallace)


@pytest.mark.parametrize("width", [4, 6])
def test_mul_consts_exhaustive_windows(width):
    """One adder graph for a set of constants (zero, repeated, ±powers of
    two, odd and even values) gives bits lo..hi-1 of a·k modulo 2^hi for
    every width-bit a and every constant, at every window with hi up to
    2·width + 1, from the plan of all constants at once and from each
    one's own plan."""
    half = 1 << (width - 1)
    values = list(range(-half, half))
    backend = fc.ClearBackend(lanes=len(values))
    a = g.BitVector.from_lane_ints(values, width, backend)
    rnd = random.Random(width)
    sets = [[0, 3, 3, -4, 1, -1, 2 * half - 1, -2 * half, 5, -6, 12]]
    sets += [[rnd.randrange(-2 * half, 2 * half + 1) for _ in range(7)] for _ in range(4)]
    for ks in sets:
        for hi in range(1, 2 * width + 2):
            for lo in range(hi):
                together = g.mul_consts(a, g.const_mul_plan(ks, width, lo, hi))
                for j, k in enumerate(ks):
                    want = _lane_masks([v * k for v in values], hi)[lo:]
                    (alone,) = g.mul_consts(a, g.const_mul_plan([k], width, lo, hi))
                    assert [bit.clear_value for bit in together[j].bits] == want, (ks, k, lo, hi)
                    assert [bit.clear_value for bit in alone.bits] == want, (ks, k, lo, hi)


def test_mul_consts_rejects_an_operand_of_another_width():
    """A plan records the operand width it was planned for; an operand
    wider or narrower than that is a ParameterError."""
    backend = fc.ClearBackend()
    narrow, wide = (g.const_mul_plan([5, -3, 12], width, 16, 48) for width in (18, 32))
    assert (narrow.width, wide.width) == (18, 32)
    for plan, width in ((narrow, 32), (narrow, 17), (wide, 18)):
        with pytest.raises(ParameterError, match=f"{plan.width}-bit operands"):
            g.mul_consts(g.BitVector.from_int(3, width, backend), plan)


def test_mul_consts_gate_trace_depends_on_the_plan_only():
    """Two private pixels times one kernel's constants, by the plans of
    every kernel entry and of a corner's and an edge's entries: the same
    gates on the same operands, in the same order."""
    ks = [5, -3, 0, 12, 5, -16, 1, 93, -128, 127, 22, -7, 64, 0, 3, -3]
    plans = [g.const_mul_plan([ks[j] for j in wanted], 8, 4, 12)
             for wanted in (range(len(ks)), [0], [0, 1, 4, 5])]
    traces = []
    for x in (37, -90):
        backend = _TracingBackend()
        a = g.BitVector.from_int(x, 8, backend, encrypt=True)
        for plan in plans:
            g.mul_consts(a, plan)
        traces.append(backend.trace)
    assert traces[0] == traces[1]
    assert traces[0]


def test_const_mul_plan_is_a_function_of_the_constants():
    """Planning reads the constants' integers only: planning again gives an
    equal plan, and reordering the constants gives the same graph with the
    targets reordered alike."""
    rnd = random.Random(9)
    ks = [rnd.randrange(-40000, 40000) for _ in range(23)] + [0, 4096]
    plan = g.const_mul_plan(ks, 32, 16, 48)
    assert g.const_mul_plan(list(ks), 32, 16, 48) == plan
    order = list(range(len(ks)))
    rnd.shuffle(order)
    shuffled = g.const_mul_plan([ks[i] for i in order], 32, 16, 48)
    assert shuffled.steps == plan.steps and shuffled.inverted == plan.inverted
    assert list(shuffled.targets) == [plan.targets[i] for i in order]


def test_const_mul_plan_of_375_constants_stays_small():
    """375 distinct random 16-bit constants, as many as one input
    channel's plan of the paper's second conv layer holds, plan under a
    16 MB peak of traced allocations."""
    rnd = random.Random(375)
    ks = [rnd.choice((1, -1)) * k for k in rnd.sample(range(1, 1 << 16), 375)]
    tracemalloc.start()
    try:
        plan = g.const_mul_plan(ks, 32, 16, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.targets) == 375 and plan.steps
    assert peak < 16 << 20, peak


def test_const_mul_plan_without_the_bitmap_plans_the_same(monkeypatch):
    """Wide constants keep the planner's one-step values in a Python set
    instead of a bitmap; forced onto that set, planning gives the same
    plan."""
    rnd = random.Random(12)
    ks = [rnd.randrange(-40000, 40000) for _ in range(40)]
    plan = g.const_mul_plan(ks, 32, 16, 48)
    monkeypatch.setattr(g, "_BITMAP_SPAN", 0)
    assert g.const_mul_plan(ks, 32, 16, 48) == plan


READ_FMT = fp.FixedPointFormat(8, 3)  # the product window [3, 11), reads of 0 to 8 bits


def _read_sets(ks, rnd) -> list:
    """Reads for the constants ``ks``: every (bits, signed) for all of
    them at once, then random reads per constant, so that constants
    sharing nodes differ in their read tops."""
    w = READ_FMT.total_bits
    sets = [[(bits, signed)] * len(ks) for bits in range(w + 1) for signed in (False, True)]
    sets += [[(rnd.randrange(w + 1), rnd.random() < 0.5) for _ in ks] for _ in range(6)]
    return sets


@pytest.mark.parametrize("width", range(1, 7))
def test_const_mul_reads_exhaustive(width):
    """Constants read at their own (bits, signed), for every width-bit a
    at the window [f, f+w) of a w=8, f=3 format: each product's bits
    [0, bits) are those of a·k >> f, its bits above are copies of bit
    bits - 1 when signed and public zeros when unsigned (all of them
    for 0 bits).  const_mul_costs charges what the gate run of the plan
    evaluates, and gives its products' public patterns, on a private a,
    an a with public low bits and a public a.  A read wider than the
    window, or a constant without a read, is a ParameterError."""
    f, w = READ_FMT.frac_bits, READ_FMT.total_bits
    half = 1 << (width - 1)
    values = list(range(-half, half))
    backend = fc.ClearBackend(lanes=len(values))
    a = g.BitVector.from_lane_ints(values, width, backend)
    rnd = random.Random(width)
    ks = [0, 1, -1, 3, -3, 5, 6, -7, 11, -13, 20, 2 * half - 1, -2 * half]
    ks += [rnd.randrange(-40, 41) for _ in range(5)]
    for bad in ([(w + 1, True)] * len(ks), [(w, True)] * (len(ks) - 1)):
        with pytest.raises(ParameterError, match=f"one read of at most {w} bits"):
            g.const_mul_plan(ks, width, f, f + w, bad)
    for reads in _read_sets(ks, rnd):
        plan = g.const_mul_plan(ks, width, f, f + w, reads)
        for k, (bits, signed), product in zip(ks, reads, g.mul_consts(a, plan)):
            out = product.bits
            want = _lane_masks([v * k >> f for v in values], bits)
            assert [bit.clear_value for bit in out[:bits]] == want, (k, bits, signed)
            fill = out[bits - 1] if signed and bits else backend.const(0)
            assert all(bit is fill for bit in out[bits:]), (k, bits, signed)
        patterns = [fp.PRIVATE, (1, 0), ((1 << w) - 1, 5)]
        charged = fp.const_mul_costs(READ_FMT, ks, reads, width, patterns)
        for (public, value), (nands, products) in zip(patterns, charged):
            one = fc.ClearBackend()
            x = g.BitVector(one.const(value >> i & 1) if public >> i & 1 else one.encrypt_bit(1)
                            for i in range(width))
            got = g.mul_consts(x, plan)
            assert nands == one.stats.nand_count, (reads, public)
            assert products == [fp.public_pattern(fp.FixedPointCipher(p, READ_FMT)) for p in got]


def test_mul_consts_past_int64():
    """Constants near 2^62, whose shifted nodes pass int64, plan over
    Python integers, and every product of an 8-bit a is exact."""
    values = list(range(-128, 128))
    backend = fc.ClearBackend(lanes=len(values))
    a = g.BitVector.from_lane_ints(values, 8, backend)
    rnd = random.Random(62)
    ks = [rnd.randrange(-(1 << 62), 1 << 62) for _ in range(4)] + [(1 << 62) - 1, 3]
    lo, hi = 40, 71
    products = g.mul_consts(a, g.const_mul_plan(ks, 8, lo, hi))
    for k, product in zip(ks, products):
        assert [bit.clear_value for bit in product.bits] == \
            _lane_masks([v * k for v in values], hi)[lo:], k


def test_mul_window_rejects_bad_bounds(clear):
    a = g.BitVector.from_int(1, 4, clear)
    for lo, hi in ((0, 0), (3, 2), (-1, 4), (0, 9)):
        with pytest.raises(ParameterError):
            g.mul_wallace(a, a, lo=lo, hi=hi)


def test_less_than_exhaustive_in_range():
    for width in range(1, 7):
        half = 1 << (width - 1)
        pairs = [(x, y) for x in range(-half, half) for y in range(-half, half)
                 if -half <= x - y < half]
        backend = fc.ClearBackend(lanes=len(pairs))
        a = g.BitVector.from_lane_ints([p[0] for p in pairs], width, backend)
        b = g.BitVector.from_lane_ints([p[1] for p in pairs], width, backend)
        lt = g.less_than(a, b)
        for lane, (x, y) in enumerate(pairs):
            assert backend.reveal_bit(lt, lane) == (1 if x < y else 0), (width, x, y)


def test_less_than_passes_the_carry_over_public_equal_bits():
    """ReLU-shaped operands at w = 8, m private low bits and public zeros
    above: every pair compares correctly, and the carry passes the public
    positions without a gate, so the compare costs 6m - 1 NANDs, what an
    m-bit less_than of private bits costs, and 0 when m = 0."""
    w = 8
    for m in range(w):
        values = list(range(1 << m))
        pairs = [(x, y) for x in values for y in values]
        backend = fc.ClearBackend(lanes=len(pairs))

        def operand(ints):
            low = g.BitVector.from_lane_ints(ints, m, backend).bits if m else ()
            return g.BitVector([*low, *[backend.const(0)] * (w - m)])

        a, b = operand([x for x, _ in pairs]), operand([y for _, y in pairs])
        lt = g.less_than(a, b)
        assert [backend.reveal_bit(lt, lane) for lane in range(len(pairs))] == \
            [int(x < y) for x, y in pairs]
        assert backend.stats.nand_count == (6 * m - 1 if m else 0), m


def _nands(clear, fn):
    before = clear.stats.nand_count
    fn()
    return clear.stats.nand_count - before


def test_circuit_nand_budgets(clear):
    def vec(width):
        return g.BitVector.from_int(0, width, clear, encrypt=True)

    w = 32
    assert _nands(clear, lambda: g.add(vec(w), vec(w))) == 9 * w - 5
    assert _nands(clear, lambda: g.sub(vec(w), vec(w))) == 10 * w - 7
    assert _nands(clear, lambda: g.less_than(vec(w), vec(w))) == 6 * w - 1
    for m, n, lo, hi, nands, _ in MUL_SHAPES:
        assert _nands(clear, lambda: g.mul_wallace(vec(m), vec(n), lo=lo, hi=hi)) == nands


@pytest.mark.parametrize("width", [16, 32])
def test_add_sub_compare_random_wide(width):
    rnd = random.Random(width)
    lo, hi = -(1 << (width - 1)), 1 << (width - 1)
    pairs = [(rnd.randrange(lo, hi), rnd.randrange(lo, hi)) for _ in range(10000)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([p[0] for p in pairs], width, backend)
    b = g.BitVector.from_lane_ints([p[1] for p in pairs], width, backend)
    sums = g.add(a, b).to_lane_ints()
    diffs = g.sub(a, b).to_lane_ints()
    cmp_result = g.compare(a, b)
    lt = g.less_than(a, b)
    for lane, ((x, y), s, d) in enumerate(zip(pairs, sums, diffs)):
        assert s == wrap(x + y, width)
        assert d == wrap(x - y, width)
        if lo <= x - y < hi:
            assert backend.reveal_bit(cmp_result.is_negative, lane) == (1 if x < y else 0)
            assert backend.reveal_bit(lt, lane) == (1 if x < y else 0)
            assert backend.reveal_bit(cmp_result.is_zero, lane) == (1 if x == y else 0)


def test_mul_random_width8_vs_oracles():
    rnd = random.Random(1)
    pairs = [(rnd.randrange(-128, 128), rnd.randrange(-128, 128)) for _ in range(3000)]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([p[0] for p in pairs], 8, backend)
    b = g.BitVector.from_lane_ints([p[1] for p in pairs], 8, backend)
    wallace = g.mul_wallace(a, b).to_lane_ints()
    school = g.mul_schoolbook(a, b).to_lane_ints()
    for (x, y), p, q in zip(pairs, wallace, school):
        assert p == x * y == q


def test_compare_examples(clear):
    r = g.compare(g.BitVector.from_int(5, 8, clear), g.BitVector.from_int(5, 8, clear))
    assert clear.reveal_bit(r.is_negative) == 0
    assert clear.reveal_bit(r.is_zero) == 1
    r = g.compare(g.BitVector.from_int(3, 8, clear), g.BitVector.from_int(7, 8, clear))
    assert clear.reveal_bit(r.is_negative) == 1
    assert clear.reveal_bit(r.is_zero) == 0


def test_compare_exhaustive_width6_in_range():
    pairs = [(x, y) for x in range(-32, 32) for y in range(-32, 32)
             if -32 <= x - y <= 31]
    backend = fc.ClearBackend(lanes=len(pairs))
    a = g.BitVector.from_lane_ints([p[0] for p in pairs], 6, backend)
    b = g.BitVector.from_lane_ints([p[1] for p in pairs], 6, backend)
    result = g.compare(a, b)
    for lane, (x, y) in enumerate(pairs):
        assert backend.reveal_bit(result.is_negative, lane) == (1 if x < y else 0)
        assert backend.reveal_bit(result.is_zero, lane) == (1 if x == y else 0)


def test_mux_selects_and_counts(clear):
    rnd = random.Random(2)
    for _ in range(20):
        x, y = rnd.randrange(-128, 128), rnd.randrange(-128, 128)
        xa = g.BitVector.from_int(x, 8, clear)
        ya = g.BitVector.from_int(y, 8, clear)
        assert g.mux(clear.const(1), xa, ya).to_int() == x
        assert g.mux(clear.const(0), xa, ya).to_int() == y
        assert g.mux(clear.const(rnd.randrange(2)), xa, xa).to_int() == x
    before = clear.stats.nand_count
    g.mux(clear.encrypt_bit(1), g.BitVector.from_int(7, 32, clear, encrypt=True),
          g.BitVector.from_int(9, 32, clear, encrypt=True))
    assert clear.stats.nand_count - before <= 32 * 4 + 1


def test_data_obliviousness_gate_traces():
    """The nand trace depends on widths only, never on private values."""
    counts = []
    for x, y in [(3, 5), (-17, 90), (0, 0), (127, -128)]:
        backend = fc.ClearBackend()
        a = g.BitVector.from_int(x, 8, backend, encrypt=True)
        b = g.BitVector.from_int(y, 8, backend, encrypt=True)
        g.add(a, b)
        g.sub(a, b)
        g.mul_wallace(a, b)
        g.mul_wallace(a, b, lo=3, hi=11)
        g.mul_const(a, -93, 3, 11)
        g.compare(a, b)
        g.less_than(a, b)
        g.mux(backend.encrypt_bit(x & 1), a, b)
        counts.append(backend.stats.nand_count)
    assert len(set(counts)) == 1


class _AuditBackend(fc.ClearBackend):
    """Raises if a circuit touches anything beyond nand and constants."""

    def __init__(self):
        super().__init__()
        self.nands = 0
        self.consts = 0

    def nand(self, a, b):
        self.nands += 1
        return super().nand(a, b)

    def const(self, bit):
        self.consts += 1
        return super().const(bit)

    def reveal_bit(self, bit, lane=0):
        raise AssertionError("circuit construction must not reveal bits")


def test_structural_audit_only_nand_reachable():
    backend = _AuditBackend()
    a = g.BitVector([backend.from_mask(v) for v in (1, 0, 1, 0, 1, 1)])
    b = g.BitVector([backend.from_mask(v) for v in (0, 1, 1, 0, 0, 1)])
    g.mul_wallace(a, b)
    g.mul_wallace(a, b, lo=2, hi=8)
    g.mul_schoolbook(a, b)  # pads with public zeros
    g.compare(a, b)
    g.less_than(a, b)
    g.mux(backend.from_mask(1), a, b)
    assert backend.nands == backend.stats.nand_count > 0
    assert backend.consts > 0


@pytest.mark.parametrize("op", ["add", "sub", "mul", "mul_window", "compare",
                                "less_than", "mux"])
def test_gsw_clear_observational_equivalence(op, toy_params, toy_key):
    rnd = random.Random(hash(op) & 0xFFFF)
    clear = fc.ClearBackend()
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=17, auto_refresh=True)
    width = 4 if op.startswith("mul") else 5
    x = rnd.randrange(-(1 << (width - 1)), 1 << (width - 1))
    y = rnd.randrange(-(1 << (width - 1)), 1 << (width - 1))
    results = {}
    for tag, backend in (("clear", clear), ("gsw", gsw)):
        a = g.BitVector.from_int(x, width, backend, encrypt=True)
        b = g.BitVector.from_int(y, width, backend, encrypt=True)
        if op == "add":
            results[tag] = g.add(a, b).to_int()
        elif op == "sub":
            results[tag] = g.sub(a, b).to_int()
        elif op == "mul":
            results[tag] = g.mul_wallace(a, b).to_int()
        elif op == "mul_window":
            results[tag] = g.mul_wallace(a, b, lo=2, hi=6).to_int()
        elif op == "less_than":
            results[tag] = backend.reveal_bit(g.less_than(a, b))
        elif op == "compare":
            r = g.compare(a, b)
            results[tag] = (backend.reveal_bit(r.is_negative),
                            backend.reveal_bit(r.is_zero))
        else:
            results[tag] = g.mux(backend.encrypt_bit(1), a, b).to_int()
    assert results["clear"] == results["gsw"], (op, x, y)
    assert clear.stats.nand_count == gsw.stats.nand_count

def _lane_cipher(values, fmt, backend):
    """A FixedPointCipher holding one value of ``values`` (an int64 array)
    per lane, its lanes' values kept for the clear backend's checks."""
    masks = [int.from_bytes(np.packbits((values >> i) & 1 == 1, bitorder="little").tobytes(),
                            "little") for i in range(fmt.total_bits)]
    x = fp.FixedPointCipher(g.BitVector(backend.from_mask(m) for m in masks), fmt)
    x._lane_cache = values.tolist()
    return x


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_merged_neuron_exhaustive(m, n):
    """Two products of private m-bit inputs and n-bit weights plus a
    private 2-bit signed bias, every input at once (one lane each), at
    every floor f in [0, m + n): one sum of the bias and the (input,
    weight) pairs gives b + sum floor(x·w / 2^f) modulo 2^R, at the root's
    signed bits R (fp_sum) and two bits fewer (sum_words, since the sum
    wraps), equal to the products built on their own (fp_mul,
    mul_wallace) and summed as words, for no more NANDs than those."""
    values = [v.ravel() for v in np.meshgrid(
        *[np.arange(-(1 << k - 1), 1 << k - 1) for k in (m, n, m, n, 2)], indexing="ij")]
    x1, w1, x2, w2, bias = values
    for f in range(m + n):
        fmt = fp.FixedPointFormat(8, f)
        totals = bias + (x1 * w1 >> f) + (x2 * w2 >> f)
        root = int(max(totals.max(), ~totals.min())).bit_length() + 1
        widths = (m, n, m + n - f)
        for bits in sorted({root, max(1, root - 2)}):
            runs = []
            for merged in (True, False):
                backend = fc.ClearBackend(lanes=len(totals))
                a1, b1, a2, b2, c = (_lane_cipher(v, fmt, backend) for v in values)
                pairs = [(a1, b1), (a2, b2)]
                if bits == root:
                    terms = [c, *(pairs if merged else [fp.fp_mul(*p, widths) for p in pairs])]
                    out = fp.fp_sum(terms, [(2, True)] + [widths if merged else
                                                           (widths[2], True)] * 2, bits)
                    out = out.bits.bits
                else:
                    low = [(a.bits.bits[:m], b.bits.bits[:n]) for a, b in pairs]
                    words = [(*p, f) if merged else (g.mul_wallace(
                        *map(g.BitVector, p), f, m + n).bits, True) for p in low]
                    out = g.sum_words([(c.bits.bits[:2], True), *words], bits, backend)
                assert [bit.clear_value for bit in out[:bits]] == \
                    _lane_masks(totals.tolist(), bits), (m, n, f, bits, merged)
                runs.append(backend.stats.nand_count)
            assert runs[0] <= runs[1], (m, n, f, bits, runs)
