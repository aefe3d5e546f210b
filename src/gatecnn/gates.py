"""Boolean circuits composed from the single NAND primitive.

Everything here is a pure function over immutable bits: derived gates,
ripple adders, two's-complement subtract, a Baugh–Wooley multiplier with
a Wallace-tree reduction that builds only a requested window of product
bits, sign-based comparison and an oblivious multiplexer.  The gate
sequence of every circuit depends only on operand widths and on which
bits are public constants (``nand`` folds gates those fix), never on
private values, so encrypted evaluation leaks nothing through the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BackendMismatchError, ParameterError, WidthMismatchError
from .fhe_core import EncBit, nand, trivial_const

__all__ = [
    "BitVector",
    "CompareResult",
    "not_gate",
    "and_gate",
    "or_gate",
    "xor_gate",
    "half_adder",
    "full_adder",
    "add",
    "sub",
    "mul_wallace",
    "mul_schoolbook",
    "mul_const",
    "ConstMulStep",
    "ConstMulPlan",
    "const_mul_plan",
    "const_mul_walk",
    "const_mul_step",
    "compare",
    "less_than",
    "mux",
    "wallace_depth",
]


def not_gate(a: EncBit) -> EncBit:
    return nand(a, a)


def and_gate(a: EncBit, b: EncBit) -> EncBit:
    n = nand(a, b)
    return nand(n, n)


def or_gate(a: EncBit, b: EncBit) -> EncBit:
    return nand(nand(a, a), nand(b, b))


def xor_gate(a: EncBit, b: EncBit) -> EncBit:
    n = nand(a, b)
    return nand(nand(a, n), nand(b, n))


def half_adder(a: EncBit, b: EncBit):
    """(sum, carry) in 5 NANDs."""
    n = nand(a, b)
    s = nand(nand(a, n), nand(b, n))
    return s, nand(n, n)


def full_adder(a: EncBit, b: EncBit, cin: EncBit):
    """(sum, carry-out) in 9 NANDs: sum = a^b^cin, cout = majority."""
    n1 = nand(a, b)
    axb = nand(nand(a, n1), nand(b, n1))
    n5 = nand(axb, cin)
    s = nand(nand(axb, n5), nand(cin, n5))
    cout = nand(n5, n1)
    return s, cout


class BitVector:
    """Ordered bits of one backend, index 0 = least significant."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(bits)
        if not bits:
            raise ParameterError("BitVector needs at least one bit")
        backend = bits[0].backend
        for b in bits:
            if b.backend is not backend:
                raise BackendMismatchError("BitVector bits span multiple backends")
        self.bits = bits

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def backend(self):
        return self.bits[0].backend

    @classmethod
    def from_int(cls, value: int, width: int, backend, encrypt: bool = False) -> "BitVector":
        """Two's-complement encode; `encrypt` uses the backend's private entry."""
        mask = (1 << width) - 1
        value &= mask
        make = backend.encrypt_bit if encrypt else backend.const
        return cls(make((value >> i) & 1) for i in range(width))

    @classmethod
    def from_lane_ints(cls, values, width: int, backend) -> "BitVector":
        """Pack one two's-complement value per clear lane."""
        if len(values) != backend.lanes:
            raise ParameterError("need exactly one value per lane")
        bits = []
        for i in range(width):
            mask = 0
            for lane, v in enumerate(values):
                mask |= ((v >> i) & 1) << lane
            bits.append(backend.from_mask(mask))
        return cls(bits)

    def to_int(self, lane: int = 0) -> int:
        """Signed value of one lane (clear directly; gsw via the backend key)."""
        backend = self.backend
        value = 0
        for i, b in enumerate(self.bits):
            value |= backend.reveal_bit(b, lane) << i
        if value >> (self.width - 1):
            value -= 1 << self.width
        return value

    def to_lane_ints(self):
        return [self.to_int(lane) for lane in range(self.backend.lanes)]


@dataclass(frozen=True)
class CompareResult:
    """Outcome bits of compare(a, b): a<b sign and a==b flag."""

    is_negative: EncBit
    is_zero: EncBit


def _check_widths(a: BitVector, b: BitVector) -> None:
    if a.width != b.width:
        raise WidthMismatchError(f"width mismatch: {a.width} vs {b.width}")


def _xor3(a: EncBit, b: EncBit, c: EncBit) -> EncBit:
    """a ^ b ^ c in 8 NANDs: a full adder's sum without its carry."""
    return xor_gate(xor_gate(a, b), c)


def _majority(a: EncBit, b: EncBit, c: EncBit) -> EncBit:
    """Carry of a + b + c in 6 NANDs: a full adder's carry without its sum."""
    return nand(nand(a, b), nand(c, nand(not_gate(a), not_gate(b))))


def _ripple(a_bits, b_bits, carry):
    """Sum bits of a + b + carry modulo 2^len (``carry`` None means 0).

    A half adder serves a position without carry-in, and the top position
    builds only its sum, since its carry-out leaves the word.
    """
    out = []
    top = len(a_bits) - 1
    for k, (x, y) in enumerate(zip(a_bits, b_bits)):
        if k == top:
            s = xor_gate(x, y) if carry is None else _xor3(x, y, carry)
        elif carry is None:
            s, carry = half_adder(x, y)
        else:
            s, carry = full_adder(x, y, carry)
        out.append(s)
    return out


def add(a: BitVector, b: BitVector) -> BitVector:
    """Two's-complement sum modulo 2^width (ripple carry, wraparound)."""
    _check_widths(a, b)
    return BitVector(_ripple(a.bits, b.bits, None))


def sub(a: BitVector, b: BitVector) -> BitVector:
    """a - b as a + ~b + 1, same width.

    Bit 0 folds the +1: its sum is a0 ^ b0 and its carry a0 | ~b0.
    """
    _check_widths(a, b)
    a0, b0 = a.bits[0], b.bits[0]
    low = xor_gate(a0, b0)
    if a.width == 1:
        return BitVector([low])
    carry = nand(not_gate(a0), b0)
    rest = _ripple(a.bits[1:], [not_gate(y) for y in b.bits[1:]], carry)
    return BitVector([low] + rest)


def _sign_extend(v: BitVector, width: int):
    return list(v.bits) + [v.bits[-1]] * (width - v.width)


def _partial_products(width: int, hi: int):
    """Baugh–Wooley partial products of a signed width x width multiply,
    per column, for the columns below ``hi``.

    A term (i, j, positive) stands for a_i & b_j, or for its complement
    NAND(a_i, b_j) when ``positive`` is False.  With t = width - 1,

        a*b = a_t b_t 2^(2t) + sum_{i,j<t} a_i b_j 2^(i+j)
              + sum_{i<t} (~(a_t b_i) + ~(a_i b_t)) 2^(t+i)
              + 2^width - 2^(2 width - 1).

    The constant 2^width enters as p + 1 = ~p + 2p for a term p of column
    ``width``, preferably an AND whose NAND the circuit builds anyway.
    The constant -2^(2 width - 1) flips the top product bit; mul_wallace
    applies it.  Width 1 has no constant (the two cancel).
    """
    t = width - 1
    columns = [[] for _ in range(hi)]

    def put(column, term):
        if column < hi:
            columns[column].append(term)

    for i in range(t):
        for j in range(t):
            put(i + j, (i, j, True))
    for i in range(t):
        put(t + i, (t, i, False))
        put(t + i, (i, t, False))
    put(2 * t, (t, t, True))
    if t and width < hi:
        col = columns[width]
        k = next((k for k, term in enumerate(col) if term[2]), 0)
        i, j, positive = col[k]
        col[k] = (i, j, not positive)
        put(width + 1, (i, j, positive))
    return columns


def mul_wallace(a: BitVector, b: BitVector, lo: int = 0, hi: int | None = None) -> BitVector:
    """Bits [lo, hi) of the signed product; by default all 2w bits.

    Baugh–Wooley partial products fill the columns below ``hi`` (none
    above is built), a Wallace tree of full and half adders compresses
    them to two rows, and a final ripple add produces bits lo..hi-1.
    Compressors in column hi-1 drop their carries, and the final adder
    forms only carries below ``lo``.  Every kept bit is exact because
    the circuit works modulo 2^hi.
    """
    _check_widths(a, b)
    width = a.width
    if hi is None:
        hi = 2 * width
    if not 0 <= lo < hi <= 2 * width:
        raise ParameterError(f"product window [{lo}, {hi}) outside [0, {2 * width})")
    a_bits, b_bits = a.bits, b.bits
    nands = {}

    def materialize(term):
        i, j, positive = term
        n = nands.get((i, j))
        if n is None:
            n = nands[(i, j)] = nand(a_bits[i], b_bits[j])
        return not_gate(n) if positive else n

    columns = [[materialize(term) for term in col]
               for col in _partial_products(width, hi)]
    out = _final_add(_compress_columns(columns), lo, a.backend)
    if hi == 2 * width and width > 1:
        out[-1] = not_gate(out[-1])
    return BitVector(out)


def _compress_columns(columns):
    """One classic Wallace reduction: full adders on triples, a half adder
    on a leftover pair, until every column holds at most two bits.  The
    last column's carries would leave the window, so there a full adder
    keeps only its sum and a half adder becomes an XOR."""
    top = len(columns) - 1
    while max(len(col) for col in columns) > 2:
        nxt = [[] for _ in range(len(columns))]
        for c, col in enumerate(columns):
            i = 0
            while len(col) - i >= 3:
                if c == top:
                    nxt[c].append(_xor3(col[i], col[i + 1], col[i + 2]))
                else:
                    s, cout = full_adder(col[i], col[i + 1], col[i + 2])
                    nxt[c].append(s)
                    nxt[c + 1].append(cout)
                i += 3
            if len(col) - i == 2:
                if c == top:
                    nxt[c].append(xor_gate(col[i], col[i + 1]))
                else:
                    s, cout = half_adder(col[i], col[i + 1])
                    nxt[c].append(s)
                    nxt[c + 1].append(cout)
            else:
                nxt[c].extend(col[i:])
        columns = nxt
    return columns


def _final_add(columns, lo: int, backend):
    """Add the (at most) two rows left in ``columns``; return the sum bits
    of columns lo and up.  Below ``lo`` only the carry is formed; a column
    holding a single bit and no carry passes through without a gate."""
    out = []
    carry = None
    top = len(columns) - 1
    for c, col in enumerate(columns):
        bits = col if carry is None else [*col, carry]
        carry = None
        if c < lo:
            if len(bits) == 3:
                carry = _majority(*bits)
            elif len(bits) == 2:
                carry = and_gate(*bits)
        elif not bits:
            out.append(trivial_const(0, backend))
        elif len(bits) == 1:
            out.append(bits[0])
        elif c == top:
            out.append(xor_gate(*bits) if len(bits) == 2 else _xor3(*bits))
        elif len(bits) == 2:
            s, carry = half_adder(*bits)
            out.append(s)
        else:
            s, carry = full_adder(*bits)
            out.append(s)
    return out


def wallace_depth(width: int) -> int:
    """Number of compression stages for a full width-w multiply (no gates
    built).  The heights start from the Baugh–Wooley columns and evolve
    exactly as in _compress_columns."""
    heights = [len(col) for col in _partial_products(width, 2 * width)]
    stages = 0
    while max(heights) > 2:
        heights = _compress_heights(heights)
        stages += 1
    return stages


def _compress_heights(heights):
    nxt = [0] * len(heights)
    for c, h in enumerate(heights):
        fas, rem = divmod(h, 3)
        if rem == 2:
            nxt[c] += fas + 1
            carries = fas + 1
        else:
            nxt[c] += fas + rem
            carries = fas
        if c + 1 < len(heights):
            nxt[c + 1] += carries
    return nxt


def mul_schoolbook(a: BitVector, b: BitVector) -> BitVector:
    """Shift-and-add reference multiplier (independent of the Wallace path)."""
    _check_widths(a, b)
    w2 = 2 * a.width
    backend = a.backend
    zero = trivial_const(0, backend)
    aa = _sign_extend(a, w2)
    bb = _sign_extend(b, w2)
    acc = BitVector([zero] * w2)
    for j in range(w2):
        shifted = [zero] * j + aa[: w2 - j]
        addend = BitVector(and_gate(bit, bb[j]) for bit in shifted)
        acc = add(acc, addend)
    return acc


def _naf(k: int) -> list:
    """Non-adjacent form of k, lowest column first: (column, digit) pairs
    with digits ±1, no two in adjacent columns, and sum d·2^column == k."""
    digits = []
    column = 0
    while k:
        if k & 1:
            digit = 2 - (k & 3)  # +1 if k = 1 mod 4, -1 if k = 3 mod 4
            digits.append((column, digit))
            k -= digit
        k >>= 1
        column += 1
    return digits


def _product_width(multiplier: int, width: int) -> int:
    """Signed bits that hold a·multiplier for every width-bit a; the
    widest product is the one of a = -2^(width-1)."""
    extreme = -multiplier << (width - 1)
    return (extreme if extreme >= 0 else ~extreme).bit_length() + 1


class ConstMulStep(NamedTuple):
    """One digit of a mul_const plan: add (or subtract) a·2^column into the
    running sum over columns [column, end).  The sum then fits in ``end``
    signed bits, so the columns above end - 1 are its sign extension.  The
    lowest ``carries`` columns form only their carries."""

    column: int
    end: int
    negative: bool
    carries: int


class ConstMulPlan(NamedTuple):
    """mul_const's shift-and-add sequence for one public integer: the wire
    term a·2^start (start None: the sum starts at 0), the other digits'
    steps lowest first, and the indices of a whose NOT the subtractions
    share."""

    start: int | None
    steps: tuple
    inverted: range


def const_mul_plan(k: int, width: int, lo: int, hi: int) -> ConstMulPlan:
    """The plan of mul_const(a, k, lo, hi) for a width-bit a: k's
    non-adjacent-form digits below hi, the lowest +1 digit as the wire
    term.  A step forms sums only where a later step or the window [lo,
    hi) reads them: below min(lo, next digit) it builds only carries."""
    digits = [(j, d) for j, d in _naf(k) if j < hi]
    start = next((j for j, d in digits if d > 0), None)
    rest = [(j, d) for j, d in digits if j != start]
    multiplier = 0 if start is None else 1 << start
    steps = []
    for i, (j, d) in enumerate(rest):
        multiplier += d << j
        end = min(_product_width(multiplier, width), hi)
        following = rest[i + 1][0] if i + 1 < len(rest) else hi
        steps.append(ConstMulStep(j, end, d < 0, max(0, min(lo, following, end - 1) - j)))
    # a subtraction's terms are ~a's bits 1.. of its columns, sign-extended
    tops = [min(step.end - step.column, width) - 1 for step in steps
            if step.negative and step.end - step.column > 1]
    inverted = range(min(1, width - 1), max(tops) + 1) if tops else range(0)
    return ConstMulPlan(start, tuple(steps), inverted)


def _sign_extended(bits, width: int) -> list:
    return [*bits[:width], *[bits[-1]] * (width - len(bits))]


def const_mul_walk(plan: ConstMulPlan, bits, inverted, zero, lo: int, hi: int, step):
    """Columns [lo, hi) of mul_const's running sum, built from ``bits`` (a,
    low bit first), ``inverted`` (its NOTs, read at plan.inverted) and
    ``zero``, which may be bits or any stand-ins for them: each plan
    step's output columns [column + carries, end) are set to
    ``step(plan_step, sum items, term items)`` over its columns."""
    if plan.start is None:
        acc = [zero] * hi
    else:
        acc = [zero] * plan.start + _sign_extended(bits, hi - plan.start)
    for st in plan.steps:
        source = inverted if st.negative else bits
        terms = [bits[0], *_sign_extended(source, st.end - st.column)[1:]]
        acc[st.column + st.carries:st.end] = step(st, acc[st.column:st.end], terms)
        acc[st.end:hi] = [acc[st.end - 1]] * (hi - st.end)
    return acc[lo:hi]


def const_mul_step(step: ConstMulStep, xs, ts) -> list:
    """The sum bits of one plan step, from the running sum's bits ``xs``
    and the term's bits ``ts`` over its columns: x + a ripple add, or
    x - a as x + ~a + 1, where ``ts`` holds a in the lowest column (whose
    sum x ^ a and carry x | ~a fold the +1) and ~a above it.  The top
    column forms no carry: above it the sum is a sign extension."""
    x, y = xs[0], ts[0]
    if len(xs) == 1:
        return [xor_gate(x, y)]
    n = nand(x, y)
    right = nand(y, n) if step.negative or not step.carries else None  # x | ~y
    out = [] if step.carries else [nand(nand(x, n), right)]
    carry = right if step.negative else not_gate(n)
    top = len(xs) - 1
    for c in range(1, top):
        if c < step.carries:
            carry = _majority(xs[c], ts[c], carry)
        else:
            s, carry = full_adder(xs[c], ts[c], carry)
            out.append(s)
    out.append(_xor3(xs[top], ts[top], carry))
    return out


def mul_const(a: BitVector, k: int, lo: int, hi: int) -> BitVector:
    """Bits [lo, hi) of a·k modulo 2^hi for a public integer k.

    Shift-and-add over k's non-adjacent form (Reitwiesner 1960), whose
    digits ±1 average a third of the columns: the lowest +1 digit's term
    a·2^j is a sign-extended wire and costs no gate, and every other
    digit is one ripple add or subtract of a·2^j into the running sum,
    lowest column first, sharing one ~a among the subtractions.  Each step
    stops where the sum provably fits (``_product_width``) and
    sign-extends above.  The gates depend on k and on which bits of a are
    public, never on a's private values."""
    if not 0 <= lo < hi:
        raise ParameterError(f"product window [{lo}, {hi}) needs 0 <= lo < hi")
    plan = const_mul_plan(k, a.width, lo, hi)
    inverted = [not_gate(bit) if i in plan.inverted else None for i, bit in enumerate(a.bits)]
    return BitVector(const_mul_walk(plan, a.bits, inverted, trivial_const(0, a.backend),
                                    lo, hi, const_mul_step))


def compare(a: BitVector, b: BitVector) -> CompareResult:
    """Sign and zero flags of a - b.

    Precondition: |a - b| must fit in width-1 bits, otherwise the
    subtraction wraps and the sign lies.  CNN values are range-bounded by
    construction, so no widened subtraction is spent on this.
    """
    diff = sub(a, b)
    not_bits = [not_gate(x) for x in diff.bits]
    all_zero = not_bits[0]
    for x in not_bits[1:]:
        all_zero = and_gate(all_zero, x)
    return CompareResult(is_negative=diff.bits[-1], is_zero=all_zero)


def less_than(a: BitVector, b: BitVector) -> EncBit:
    """Sign of a - b, i.e. a < b, without the difference's other bits.

    Only the carry chain of a + ~b + 1 is built (6 NANDs a bit), plus the
    sum of the sign position.  Same precondition as compare.
    """
    _check_widths(a, b)
    a_bits, b_bits = a.bits, b.bits
    if a.width == 1:
        return xor_gate(a_bits[0], b_bits[0])
    carry = nand(not_gate(a_bits[0]), b_bits[0])
    for x, y in zip(a_bits[1:-1], b_bits[1:-1]):
        # majority(x, ~y, carry)
        carry = nand(nand(x, not_gate(y)), nand(carry, nand(not_gate(x), y)))
    # a ^ ~b ^ carry
    return not_gate(_xor3(a_bits[-1], b_bits[-1], carry))


def mux(sel: EncBit, on_true: BitVector, on_false: BitVector) -> BitVector:
    """Oblivious per-bit select: on_true where sel=1, else on_false."""
    _check_widths(on_true, on_false)
    nsel = not_gate(sel)
    return BitVector(
        nand(nand(sel, t), nand(nsel, f))
        for t, f in zip(on_true.bits, on_false.bits)
    )
