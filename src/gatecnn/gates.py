"""Boolean circuits composed from the single NAND primitive.

Everything here is a pure function over immutable bits: derived gates,
one ripple adder that also subtracts, a Baugh–Wooley multiplier
whose columns one reducer sums, earliest-ready bits first, building only
a requested window of product bits, a multi-operand adder that sums
signed and unsigned words of any widths and such products, each floored
on its own, in the same reducer, public word bits and every constant
folded into one, multiplication by public integers
as shift-and-add over one adder graph that their products share (a
digit chain for one integer, a greedy graph planned over numpy arrays
for several), sign-based comparison and an oblivious multiplexer.  A
constant multiply is planned for its operand's width, which may be
narrower than a word when the operand is known to fit fewer bits, and
builds each product only up to the bits its reader reads.  The
gate sequence of every circuit depends only on operand widths and on
which bits are public constants (``nand`` folds gates those fix), never
on private values, so encrypted evaluation leaks nothing through the
trace.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BackendMismatchError, ParameterError, WidthMismatchError
from .fhe_core import EncBit, nand

__all__ = [
    "BitVector",
    "CompareResult",
    "not_gate",
    "and_gate",
    "xor_gate",
    "full_adder",
    "add",
    "sub",
    "mul_wallace",
    "sum_words",
    "mul_schoolbook",
    "mul_const",
    "mul_consts",
    "ConstMulStep",
    "ConstMulPlan",
    "const_mul_plan",
    "const_mul_walk",
    "const_mul_product",
    "const_mul_step",
    "compare",
    "less_than",
    "mux",
]


def not_gate(a: EncBit) -> EncBit:
    """NOT a as NAND(public 1, a): one gate, which multiplies no two
    ciphertexts (on gsw it is W - M, passing a's noise through)."""
    return nand(a.backend.const(1), a)


def and_gate(a: EncBit, b: EncBit) -> EncBit:
    return not_gate(nand(a, b))


def xor_gate(a: EncBit, b: EncBit) -> EncBit:
    n = nand(a, b)
    return nand(nand(a, n), nand(b, n))


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


def _first_column(x: EncBit, y: EncBit, negative: bool = False, sums: bool = True) -> tuple:
    """(sum, carry) of a ripple's lowest column: the sum x ^ y, None
    unless ``sums``, and the carry x & y, or x | ~y when ``negative``, where
    y is a subtrahend's bit and the column folds its +1 (see _ripple).
    A half adder in 5 NANDs, 4 when negative; the carry alone in 2."""
    n = nand(x, y)
    if not sums:
        return None, (nand(y, n) if negative else not_gate(n))
    left = nand(x, n)
    right = nand(y, n)  # x | ~y
    return nand(left, right), (right if negative else not_gate(n))


def _ripple(xs, ts, negative: bool, carries: int = 0) -> list:
    """Bits [carries, len) of x + t modulo 2^len, of the words whose bits,
    low first, are ``xs`` and ``ts``: a ripple add, or with ``negative``
    x - a as x + ~a + 1, where ``ts`` holds a in the lowest column (whose
    sum x ^ a and carry x | ~a fold the +1, _first_column) and ~a above
    it.  The lowest ``carries`` columns form carries only, since no reader
    needs their sums, and the top column no carry: it leaves the word."""
    top = len(xs) - 1
    if not top:
        return [xor_gate(xs[0], ts[0])]
    low, carry = _first_column(xs[0], ts[0], negative, not carries)
    out = [] if carries else [low]
    for c in range(1, top):
        if c < carries:
            carry = _majority(xs[c], ts[c], carry)
        else:
            s, carry = full_adder(xs[c], ts[c], carry)
            out.append(s)
    return [*out, _xor3(xs[top], ts[top], carry)]


def add(a: BitVector, b: BitVector) -> BitVector:
    """Two's-complement sum modulo 2^width (ripple carry, wraparound)."""
    _check_widths(a, b)
    return BitVector(_ripple(a.bits, b.bits, False))


def sub(a: BitVector, b: BitVector) -> BitVector:
    """a - b as a + ~b + 1, same width, the +1 folded into bit 0."""
    _check_widths(a, b)
    return BitVector(_ripple(a.bits, [b.bits[0], *map(not_gate, b.bits[1:])], True))


def _partial_products(m: int, n: int) -> tuple:
    """(columns, constant): the Baugh–Wooley partial products of a signed
    m x n multiply, per column, and the integer they leave out.

    A term (i, j, positive) stands for a_i & b_j, or for its complement
    NAND(a_i, b_j) when ``positive`` is False.  With s = m - 1, t = n - 1,

        a*b = a_s b_t 2^(s+t) + sum_{i<s, j<t} a_i b_j 2^(i+j)
              + sum_{j<t} ~(a_s b_j) 2^(s+j) + sum_{i<s} ~(a_i b_t) 2^(i+t)
              + 2^s + 2^t - 2^(m+n-1)."""
    s, t = m - 1, n - 1
    columns = [[] for _ in range(m + n)]
    for i in range(s):
        for j in range(t):
            columns[i + j].append((i, j, True))
    for j in range(t):
        columns[s + j].append((s, j, False))
    for i in range(s):
        columns[i + t].append((i, t, False))
    columns[s + t].append((s, t, True))
    return columns, (1 << s) + (1 << t) - (1 << (m + n - 1))


def mul_wallace(a: BitVector, b: BitVector, lo: int = 0, hi: int | None = None) -> BitVector:
    """Bits [lo, hi) of the signed product of an m-bit a and an n-bit b;
    by default all m + n bits: the one-product sum_words at width
    hi - lo, exact because the circuit works modulo 2^hi.  The name is the
    multiplier's public one, which tracers wrap by name, though no Wallace
    tree is left."""
    m, n = a.width, b.width
    if hi is None:
        hi = m + n
    if not 0 <= lo < hi <= m + n:
        raise ParameterError(f"product window [{lo}, {hi}) outside [0, {m + n})")
    return BitVector(sum_words([(a.bits, b.bits, lo)], hi - lo, a.backend))


def sum_words(words, width: int, backend) -> list:
    """Bits [0, width) of the sum of ``words`` modulo 2^width, from one
    column reducer (_reduce_columns) over their _sum_columns.  A word is a
    pair (bits, signed): its bits of ``backend``, low first, read as an
    unsigned integer or, when ``signed``, in two's complement.  A product
    is a triple (a_bits, b_bits, lo): the two's-complement a times b,
    floored by 2^lo (merged arithmetic, Swartzlander 1980)."""
    columns, flip = _sum_columns(words, width, backend)
    out = [backend.const(0) if bit is None else bit for bit in _reduce_columns(columns, width)]
    if flip:
        out[-1] = not_gate(out[-1])
    return out


def _sum_columns(words, width: int, backend) -> tuple:
    """(columns, flip): the columns of sum_words below ``width``, each
    built (_materialized) only when the reducer reaches it, and whether the
    top sum bit is to be inverted.

    Private bits go straight into their columns (Dadda 1965), a signed
    word's sign bit s as ~s, since -s·2^t = ~s·2^t - 2^t, and so do the
    partial products of a product from column lo up, shifted down by lo.
    Its partial products below lo are reduced per product, so that each
    product is floored on its own, by _low_part, whose carries and copies
    enter column 0.  Every public word bit, every -2^t and each product's
    Baugh–Wooley constant (its part below lo in its own columns) fold into
    one constant K modulo 2^width, which enters by _fold_constant.  The
    columns depend only on the shapes and on which bits are public, never
    on private values."""
    constant, layout, lows = 0, [[] for _ in range(width)], []
    for n, word in enumerate(words):
        if len(word) == 2:
            bits, signed = word
            top = len(bits) - 1 if signed else len(bits)
            for i, bit in enumerate(bits):
                if bit.public is not None:
                    constant += (-bit.public if i == top else bit.public) << i
                elif i < width:
                    constant -= (i == top) << i
                    layout[i].append(((n, i), i == top))  # (key, read inverted)
            continue
        a, b, lo = word
        terms, exact = _partial_products(len(a), len(b))
        for c, col in enumerate(terms[lo:lo + width]):
            layout[c] += [((n, i, j), positive) for i, j, positive in col]
        constant += exact >> lo
        if lo:  # the last column: copies into column lo
            below = [[((i, j), positive) for i, j, positive in col] for col in terms[:lo]] + [[]]
            _fold_constant(below, exact, lo)
            lows.append((word, below))
    flip = _fold_constant(layout, constant, width, any(len(word) == 3 for word in words))

    def base(key):
        if key is None:
            return 0, backend.const(1)
        if len(key) == 2:
            return 0, words[key[0]][0][key[1]]
        n, i, j = key
        return 1, nand(words[n][0][i], words[n][1][j])

    def columns():
        parts = [_low_part(word, below) for word, below in lows]
        made = _materialized(layout, base)
        yield [*(bit for carries, _ in parts for bit in carries), *next(made),
               *(bit for _, copies in parts for bit in copies)]
        yield from made

    return columns(), flip


def _fold_constant(columns, constant: int, bits: int, invert_top: bool = False) -> bool:
    """Fold bits c < ``bits`` of ``constant`` into ``columns`` of entries
    (key, inverted), in place: a set bit c enters as p + 1 = ~p + 2p on
    an entry p of column c, an inverted one if any (its ~p is the bit
    itself), copying p into column c + 1 if that is one of the columns;
    a column without an entry gets a public 1 (key None), except, with
    ``invert_top``, the last one.  Returns whether that one's bit is left
    to invert its sum bit."""
    for c in range(bits):
        col = columns[c]
        if not constant >> c & 1:
            continue
        if not col:
            if invert_top and c == len(columns) - 1:
                return True
            col.append((None, False))
            continue
        k = next((k for k, (_, inverted) in enumerate(col) if inverted), 0)
        if c + 1 < len(columns):
            columns[c + 1].append(col[k])
        col[k] = (col[k][0], not col[k][1])
    return False


def _materialized(columns, base):
    """Per column of entries (key, inverted), its pairs (ready, bit), built
    when the column is asked for: ``base(key)`` gives an entry's (ready,
    bit) and an inverted entry reads its NOT, one NAND deeper, each built
    once and dropped after the key's last column."""
    last = {key: c for c, col in enumerate(columns) for key, _ in col}
    built = {}
    for c, col in enumerate(columns):
        for key, inverted in col:
            if (key, False) not in built:
                built[key, False] = base(key)
            if inverted and (key, True) not in built:
                ready, bit = built[key, False]
                built[key, True] = ready + 1, not_gate(bit)
        yield [built[entry] for entry in col]
        for entry in [entry for entry in built if last[entry[0]] == c]:
            del built[entry]


def _low_part(product, columns) -> tuple:
    """(carries, copies): the pairs (ready, bit) that a product (a_bits,
    b_bits, lo) sends into column lo from its ``columns`` of entries (key
    (i, j), inverted) below lo, reduced with carry-only last adders, and
    the entries its last column holds, copied there by _fold_constant.
    The lowest columns with at most one entry send no carry, so they are
    skipped unbuilt; a key of theirs that a later column reads is built
    there."""
    a, b, lo = product
    skip = next((c for c, col in enumerate(columns[:lo]) if len(col) > 1), lo)

    def base(key):
        return (0, a[0].backend.const(1)) if key is None else (1, nand(a[key[0]], b[key[1]]))

    made = _materialized(columns[skip:], base)
    return _reduce_columns(itertools.islice(made, lo - skip), lo - skip, below=True), next(made)


def _reduce_columns(columns, width: int, below: bool = False) -> list:
    """Sum the bits of the ``width`` ``columns`` (pairs (ready, bit),
    column c weighing 2^c) modulo 2^width: each column's sum bit (None for
    none), lowest column first folded with the carries from below to one
    bit (_reduce_column).
    The top column's adders form only sums, their carries leaving the
    window.  With ``below`` every column lies below the window: its last
    adder forms only its carry, and the top column's carries, pairs
    (ready, bit), are returned instead."""
    out, carries = [], []
    order = itertools.count()
    for c, col in enumerate(columns):
        bit, carries = _reduce_column(col, carries, order, not below and c == width - 1, below)
        out.append(bit)
    return [(ready, bit) for ready, _, bit in carries] if below else out


def _reduce_column(col, carries, order, top: bool, below: bool) -> tuple:
    """(bit, carries out) of one column of _reduce_columns: its pairs
    (ready, bit) and the ``carries`` from below, triples (ready, order,
    bit), folded to one bit (None for no bit) by full adders on three bits
    and a half adder only on a final pair.  Bits enter in ``order`` after
    the carries.  A ``top`` column's adders form only sums, and the last
    adder of a column ``below`` the window only its carry.

    Each adder takes the column's earliest-ready bits, the latest of them
    as carry-in, where ``ready`` is a bit's NAND depth under the adders'
    own: a full adder's sum is ready at max(a, b) + 6 or cin + 3 and its
    carry at max(a, b) + 5 or cin + 2, a half adder's at + 3 and + 2.
    The order depends only on the shapes, never on private values.
    """
    bits = [(ready, next(order), bit) for ready, bit in col] + carries
    heapq.heapify(bits)
    carries = []
    while len(bits) > 1:
        group = [heapq.heappop(bits) for _ in range(min(3, len(bits)))]
        ready, _, ins = zip(*group)
        full = len(ins) == 3
        if full:
            ready_s, ready_c = max(ready[1] + 6, ready[2] + 3), max(ready[1] + 5, ready[2] + 2)
        else:
            ready_s, ready_c = ready[1] + 3, ready[1] + 2
        last = below and not bits  # the column's last adder: no sum is read
        if top:  # the carry would leave the window
            s, cout = (_xor3 if full else xor_gate)(*ins), None
        elif full:
            s, cout = (None, _majority(*ins)) if last else full_adder(*ins)
        else:
            s, cout = _first_column(*ins, sums=not last)
        if s is not None:
            heapq.heappush(bits, (ready_s, next(order), s))
        if cout is not None:
            carries.append((ready_c, next(order), cout))
    return (bits[0][2] if bits else None), carries


def mul_schoolbook(a: BitVector, b: BitVector) -> BitVector:
    """Shift-and-add reference multiplier (independent of mul_wallace)."""
    _check_widths(a, b)
    w2 = 2 * a.width
    backend = a.backend
    zero = backend.const(0)
    aa = _sign_extended(a.bits, w2)
    bb = _sign_extended(b.bits, w2)
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


def _odd_part(k: int) -> tuple:
    """(u, s) with k = u·2^s and u odd, for k != 0."""
    s = (k & -k).bit_length() - 1
    return k >> s, s


class ConstMulStep(NamedTuple):
    """One node of a mul_const plan, a·u for an odd u, formed as
    sum·2^shift ± term·2^column from two earlier nodes (node 0 is a
    itself; ``sum`` None stands for 0).  The node is built over columns
    [0, top) and read as its sign extension above: the columns below
    ``column`` are the shifted sum's bits, and the step forms [column,
    top), the lowest ``carries`` of them as carries only, since no reader
    needs their sums."""

    sum: int | None
    shift: int
    term: int
    column: int
    negative: bool
    top: int
    carries: int


class ConstMulPlan(NamedTuple):
    """mul_const's adder graph for public integers ``constants`` at the
    product window [lo, hi) of a ``width``-bit operand: the node steps
    (node i is steps[i - 1]), the indices of each node's bits whose NOT
    the negative steps reading it share, per constant the node and shift
    whose bits [lo - shift, lo + bits - shift) are its product's exact
    bits (node None: they are 0), and per constant its read (bits,
    signed): its reader takes the product's low ``bits`` bits, in two's
    complement or unsigned, and the bits above are filled from them
    (const_mul_product)."""

    constants: tuple
    steps: tuple
    inverted: tuple
    targets: tuple
    reads: tuple
    lo: int
    hi: int
    width: int


def _chain(u: int) -> list:
    """Shift-and-add over the non-adjacent-form digits of an odd u, as
    adder-graph nodes (value, sum, shift, term, column, negative) in node
    values: the lowest +1 digit's term a·2^j is the first sum, shifted
    (none if every digit is -1), and every other digit, lowest first, adds
    or subtracts a·2^column into the running sum."""
    digits = _naf(u)
    start = next((j for j, d in digits if d > 0), None)
    total, node, shift = (0, None, 0) if start is None else (1 << start, 1, start)
    ops = []
    for j, d in digits:
        if j != start:
            total += d << j
            ops.append((total, node, shift, 1, j, d < 0))
            node, shift = total, 0
    return ops


def _adder_graph(targets) -> list:
    """Adder-graph nodes, as in _chain, whose values include every odd
    target (sorted, so the graph depends on the set alone): a greedy
    RAG-n (Dempster & Macleod 1995).  Each round adds every target one
    step from the built nodes; failing that, the one-step value that
    brings the most targets within one step (_votes); failing that, the
    furthest one-step prefix of the cheapest target's _chain.  Shifts stop
    where a shifted node passes 2^(bits of the largest target + 1).

    ``marks`` holds the built nodes (_NODE) and the values one step from
    them (_REACH), which grow by numpy arrays after each round's nodes are
    added; targets' partners are formed only in the rounds that vote.
    With B = 2^(bits of the largest target), shifted nodes stay within
    2·B and nodes (targets, chain prefixes and vote winners) within 3·B,
    so every one-step value fits the window of 8·B."""
    bound = 1 << max(abs(t) for t in targets).bit_length()
    dtype = np.int64 if bound < 1 << 58 else object  # 8·bound fits an int64
    marks = _OddMarks(8 * bound, dtype)
    remaining = [t for t in targets if t != 1]
    ops = []
    nodes = np.zeros(0, dtype)  # in build order
    shifted = np.zeros(0, dtype)  # every built node's shifts
    powers = np.array([1 << i for i in range(1, (2 * bound).bit_length())], dtype)

    def add(values):
        """Build ``values`` in order, then mark _REACH every value one step
        from them and the built nodes, a chunk of them at a time."""
        nonlocal nodes, shifted
        first = len(nodes)
        nodes = np.concatenate([nodes, np.array(values, dtype)])
        for i in range(first, len(nodes)):
            if i:
                ops.append((values[i - first], *_best_step(values[i - first], nodes[:i], marks)))
            marks.mark(nodes[i:i + 1], _NODE)
        ys = [v * powers[:(2 * bound // abs(v)).bit_length() - 1] for v in values]
        shifted = np.concatenate([shifted, *ys])
        size = max(1, _CHUNK // (3 * (len(shifted) + len(nodes) * len(powers))))
        for start in range(0, len(values), size):
            fresh = nodes[first + start:first + start + size]
            # v ± r·2^i, r·2^i - v, r ± v·2^i, v·2^i - r and -v for a new v, node r
            marks.mark_pairs(fresh, shifted)
            marks.mark_pairs(nodes, np.concatenate(ys[start:start + size]))
            marks.mark(-fresh, _REACH)
        marks.mark(nodes, _NODE)  # over the marks of the values they reach

    add([1])
    while remaining:
        near = marks.has(np.array(remaining, dtype), _REACH)
        ready = [t for t, one_step in zip(remaining, near) if one_step]
        if not ready:
            best = _votes(remaining, nodes, shifted, 2 * bound, marks)
            if best is None:
                t = min(remaining, key=lambda t: (len(_naf(t)), abs(t), t))
                prefixes = [v for v, *_ in _chain(t)][::-1]
                near = marks.has(np.array(prefixes, dtype), _REACH)
                best = next(v for v, one_step in zip(prefixes, near) if one_step)
            ready = [best]
        add(ready)
        done = set(ready)
        remaining = [t for t in remaining if t not in done]
    live = set(targets)  # a greedy round may add a node no other node reads
    for value, sum_value, _, term_value, _, _ in reversed(ops):
        if value in live:
            live.update((sum_value, term_value))
    return [op for op in ops if op[0] in live]


# Most entries of one planner array built at once (256 KB of int64).
_CHUNK = 1 << 15

# Widest window of odd values an _OddMarks keeps as a bitmap (one byte each).
_BITMAP_SPAN = 1 << 22

# The marks of an odd value in _adder_graph: a built node, or one step from them.
_NODE, _REACH = 1, 2


class _OddMarks:
    """Marks (_NODE or _REACH) on odd integers of magnitude below ``span``,
    taken and given as arrays of ``dtype``: a bitmap up to _BITMAP_SPAN,
    else a Python set per mark, where _NODE outranks _REACH.  In the bitmap
    the slot of an odd v is (v + span - 1) / 2, and a later mark replaces
    an earlier one."""

    def __init__(self, span: int, dtype):
        self.span, self.dtype = span, dtype
        self.marks = np.zeros(span, dtype=np.int8) if span <= _BITMAP_SPAN else None
        self.sets = {_NODE: set(), _REACH: set()}

    def mark(self, values, mark: int) -> None:
        if self.marks is None:
            self.sets[mark].update(values.tolist())
        else:
            self.marks[(values + self.span) >> 1] = mark

    def mark_pairs(self, odd, even) -> None:
        """Mark _REACH a ± b and b - a for every entry a of the odd ``odd``
        and b of the even ``even``: the slots of a and -a plus or minus
        b / 2."""
        if self.marks is None:
            a, b = odd[:, None], even[None, :]
            self.mark(np.concatenate([(a + b).ravel(), (a - b).ravel(), (b - a).ravel()]), _REACH)
            return
        half = even >> 1
        plus, minus = ((self.span - 1 + odd) >> 1)[:, None], ((self.span - 1 - odd) >> 1)[:, None]
        self.marks[plus + half] = _REACH
        self.marks[plus - half] = _REACH
        self.marks[minus + half] = _REACH

    def has(self, values, mark: int) -> np.ndarray:
        """Whether each entry of the array ``values`` bears ``mark``."""
        if self.marks is None:
            found = self.sets[mark].intersection(values.ravel().tolist())
            if mark == _REACH:
                found -= self.sets[_NODE]
            return np.isin(values, np.array(list(found), self.dtype))
        return self.marks[(values + self.span) >> 1] == mark


def _votes(remaining, nodes, shifted, limit: int, marks: _OddMarks):
    """The _REACH value of ``marks`` that is a partner of the most
    ``remaining`` targets, the smallest (|s|, s) on ties; None if there is
    none.  A target's partners, the values one step forms it from with a
    built node or alone, are t ± r·2^i and r·2^i - t for every shifted
    node, the odd parts s of t - r (t = r ± s·2^i) and of t + r (t =
    s·2^i - r) for every node r with |t ∓ r| <= ``limit``, -t, and s =
    t / (2^i ± 1) where 2^i - 1 <= |t|.  Targets are taken a chunk at a
    time."""
    targets = np.array(remaining, nodes.dtype)
    factors, least = _alone_factors(limit, nodes.dtype)
    size = max(1, _CHUNK // (3 * (len(shifted) + len(nodes) + len(factors))))
    found = []
    for start in range(0, len(targets), size):
        t = targets[start:start + size, None]
        near = [t - nodes, t + nodes]
        near = [np.where((d != 0) & (abs(d) <= limit), d, 0) for d in near]
        near = [np.where(d != 0, d // np.where(d != 0, d & -d, 1), 0) for d in near]  # odd parts
        alone = np.where((least <= abs(t)) & (t % factors == 0), t // factors, 0)
        values = np.concatenate([alone, -t, t - shifted, t + shifted, shifted - t,
                                 near[0], -near[0], near[1]], axis=1)
        values = np.where(marks.has(values, _REACH), values, 0)
        values.sort(axis=1)  # to drop a target's repeats
        fresh = values != 0
        fresh[:, 1:] &= values[:, 1:] != values[:, :-1]
        found.append(values[fresh])
    values, counts = np.unique(np.concatenate(found), return_counts=True)
    if not len(values):
        return None
    return min(values[counts == counts.max()].tolist(), key=lambda s: (abs(s), s))


@functools.lru_cache(maxsize=64)
def _alone_factors(limit: int, dtype) -> tuple:
    """The factors m of _votes' partners t / m, 2^i + 1, 2^i - 1 and
    1 - 2^i for i >= 2 up to the bits of ``limit``, and for each the least
    |t| it applies to, 2^i - 1 (read-only arrays of ``dtype``)."""
    ones = [1 << i for i in range(2, limit.bit_length() + 1)]
    factors = np.array([m for one in ones for m in (one + 1, one - 1, 1 - one)], dtype)
    least = np.repeat(np.array(ones, dtype) - 1, 3)
    factors.flags.writeable = least.flags.writeable = False
    return factors, least


def _odd_parts(values) -> tuple:
    """Per nonzero entry k of an integer array, (u, 2^s) with k = u·2^s
    and u odd, as two arrays."""
    low = values & -values
    return values // low, low


def _best_step(value: int, nodes, marks: _OddMarks) -> tuple:
    """(sum, shift, term, column, negative) of a step that forms an odd
    ``value`` from the built nodes (``nodes``, odd, in build order, each
    marked _NODE): the one with the highest term column (it forms the
    fewest columns), the earliest in node order on ties.  value = r ±
    y·2^column with nodes r and ±y has column >= 1 and wins; else value =
    -(-value); else value = y·2^column - r, whose term column is 0."""
    y, low = _odd_parts(value - nodes)
    plus = marks.has(y, _NODE)
    columns = np.where(plus | marks.has(-y, _NODE), low, 0)
    i = int(columns.argmax())
    if columns[i]:
        r, y, column = int(nodes[i]), int(y[i]), int(low[i]).bit_length() - 1
        return (r, 0, y, column, False) if plus[i] else (r, 0, -y, column, True)
    if marks.has(np.array([-value], nodes.dtype), _NODE)[0]:
        return None, 0, -value, 0, True
    y, low = _odd_parts(value + nodes)  # nonzero: -value is no node
    i = int(marks.has(y, _NODE).argmax())
    return int(y[i]), int(low[i]).bit_length() - 1, int(nodes[i]), 0, True


def const_mul_plan(ks, width: int, lo: int, hi: int, reads=None) -> ConstMulPlan:
    """The plan of the products a·k, bits [lo, hi), of a width-bit a with
    each public integer of ``ks``, each read at its (bits, signed) of
    ``reads`` (default (hi - lo, True) for all): exact only up to its read
    top lo + bits.  One adder graph over the constants' distinct odd parts
    (of their non-adjacent-form digits below their read tops, none for a
    read of 0 bits), the digit chain when there is one, else a greedy
    graph (_adder_graph).  The plan is a function of the set of constants
    and their reads: their order only orders ``targets``.

    Each node stops where its value provably fits (``_product_width``) or
    at the highest read top of its readers, and forms sums only from the
    lowest column a reader needs: below that it builds only carries."""
    ks = tuple(ks)
    reads = ((hi - lo, True),) * len(ks) if reads is None else tuple(reads)
    if len(reads) != len(ks) or not all(0 <= bits <= hi - lo for bits, _ in reads):
        raise ParameterError(f"need one read of at most {hi - lo} bits per constant")
    parts = []
    for k, (bits, _) in zip(ks, reads):
        top = lo + bits if bits else 0  # nothing read: the product is 0
        if abs(k).bit_length() >= top:  # drop the digits from the read top up
            k = sum(d << j for j, d in _naf(k) if j < top)
        parts.append(_odd_part(k) if k else None)
    odd = sorted({part[0] for part in parts if part}, key=lambda u: (abs(u), u))
    ops = [] if not odd else _chain(odd[0]) if len(odd) == 1 else _adder_graph(odd)
    index = {1: 0}
    for op in ops:
        index[op[0]] = len(index)
    need_lo, need_hi = [hi] * len(index), [0] * len(index)
    targets = [(index[part[0]], part[1]) if part else (None, 0) for part in parts]
    for (node, shift), (bits, _) in set(zip(targets, reads)):
        if node is not None:
            need_lo[node] = min(need_lo[node], max(0, lo - shift))
            need_hi[node] = max(need_hi[node], lo + bits - shift)
    steps = [None] * len(ops)
    for i in range(len(ops), 0, -1):
        value, summed, shift, term, column, negative = ops[i - 1]
        top = min(_product_width(value, width), need_hi[i])
        if summed is not None:
            summed = index[summed]
            need_lo[summed] = min(need_lo[summed], max(0, min(column, need_lo[i]) - shift))
            need_hi[summed] = max(need_hi[summed], top - shift)
        term = index[term]
        if column < top:
            need_lo[term] = 0
            need_hi[term] = max(need_hi[term], top - column)
        steps[i - 1] = ConstMulStep(summed, shift, term, column, negative, top,
                                    max(0, min(need_lo[i], top - 1) - column))
    # a negative step reads its term's bit 0 and ~term above it, sign-extended
    lengths, stops = [width], [0] * len(index)
    for st in steps:
        lengths.append(st.top)
        if st.negative and st.top - st.column > 1:
            stops[st.term] = max(stops[st.term], min(st.top - st.column, lengths[st.term]))
    inverted = tuple(range(min(1, n - 1), stop) if stop else range(0)
                     for n, stop in zip(lengths, stops))
    return ConstMulPlan(ks, tuple(steps), inverted, tuple(targets), reads, lo, hi, width)


def _sign_extended(bits, width: int) -> list:
    return [*bits[:width], *bits[-1:] * (width - len(bits))]


def const_mul_walk(plan: ConstMulPlan, bits, step) -> list:
    """The plan's nodes built from ``bits`` (a, low bit first) by ``step``
    (const_mul_step's contract), each negative step's term bits inverted
    by not_gate, once per node: a list with the bits of each node over its
    columns [0, top).  The lowest ``carries`` columns of a step's range
    are not the node's bits; no reader reads them."""
    zero = bits[0].backend.const(0)
    values = [list(bits)]
    inverted = {}
    for st in plan.steps:
        if st.sum is None:
            acc = [zero] * st.top
        elif st.shift:
            acc = ([zero] * st.shift + _sign_extended(values[st.sum], st.top - st.shift))[:st.top]
        else:
            acc = _sign_extended(values[st.sum], st.top)
        if st.column < st.top:
            width = st.top - st.column
            term = values[st.term]
            if st.negative:
                if st.term not in inverted:
                    inverted[st.term] = negated = [None] * len(term)
                    for j in plan.inverted[st.term]:
                        negated[j] = not_gate(term[j])
                terms = [term[0], *_sign_extended(inverted[st.term], width)[1:]]
            else:
                terms = _sign_extended(term, width)
            acc[st.column + st.carries:] = step(st, acc[st.column:], terms)
        values.append(acc)
    return values


def const_mul_product(plan: ConstMulPlan, values, j: int) -> list:
    """Bits [lo, hi) of constant j's product, read from walked ``values``:
    at its read (bits, signed), its bits [lo, lo + bits) and above them
    copies of the top one when signed, else public zeros, so that the
    word holds the product whenever the product fits its read."""
    node, shift = plan.targets[j]
    bits, signed = plan.reads[j]
    zero = values[0][0].backend.const(0)
    if node is None:
        return [zero] * (plan.hi - plan.lo)
    start = plan.lo - shift
    low = _sign_extended(values[node], plan.lo + bits - shift)
    low = [zero] * -start + low if start < 0 else low[start:]
    return low + (low[-1:] if signed else [zero]) * (plan.hi - plan.lo - bits)


def const_mul_step(step: ConstMulStep, xs, ts) -> list:
    """The sum bits of one plan step, from the running sum's bits ``xs``
    and the term's bits ``ts`` over its columns (see _ripple): above the
    top column the sum is a sign extension."""
    return _ripple(xs, ts, step.negative, step.carries)


def mul_consts(a: BitVector, plan: ConstMulPlan) -> list:
    """Bits [lo, hi) of a·k modulo 2^hi for each of the plan's constants,
    from one shared adder graph: each node is built once, and a product
    is wires into its node.  The gates depend on the plan and on which
    bits of a are public, never on a's private values.  ``a`` must have
    the plan's operand width."""
    if a.width != plan.width:
        raise ParameterError(f"a {a.width}-bit operand for a plan of "
                             f"{plan.width}-bit operands")
    values = const_mul_walk(plan, a.bits, const_mul_step)
    return [BitVector(const_mul_product(plan, values, j))
            for j in range(len(plan.constants))]


def mul_const(a: BitVector, k: int, lo: int, hi: int) -> BitVector:
    """Bits [lo, hi) of a·k modulo 2^hi for a public integer k.

    Shift-and-add over k's non-adjacent form (Reitwiesner 1960), whose
    digits ±1 average a third of the columns: the one-constant plan of
    ``mul_consts``.  The lowest +1 digit's term a·2^j is a sign-extended
    wire and costs no gate, and every other digit is one ripple add or
    subtract of a·2^j into the running sum, lowest column first, sharing
    one ~a among the subtractions."""
    if not 0 <= lo < hi:
        raise ParameterError(f"product window [{lo}, {hi}) needs 0 <= lo < hi")
    return mul_consts(a, const_mul_plan((k,), a.width, lo, hi))[0]


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
    sum of the sign position; the carry passes a position whose two bits
    are public and equal without a gate.  Same precondition as compare.
    """
    _check_widths(a, b)
    a_bits, b_bits = a.bits, b.bits
    if a.width == 1:
        return xor_gate(a_bits[0], b_bits[0])
    carry = nand(not_gate(a_bits[0]), b_bits[0])
    for x, y in zip(a_bits[1:-1], b_bits[1:-1]):
        if x.public is not None and x.public == y.public:
            continue  # majority(x, ~x, carry) is the carry
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
