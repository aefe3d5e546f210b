"""Real arithmetic over encrypted bits via a scaled two's-complement format.

A real r is stored as the integer floor(r * scale) in ``total_bits`` bits,
``scale = 2**frac_bits``.  Multiplication keeps bits f..f+w-1 of the
exact product, i.e. the product arithmetic-shifted right by ``frac_bits``
(truncation toward -inf, the same floor as the encoding), so the extra
error of one multiply is one-sided and below 1/scale.  The multiplier
circuits build only those product bits and the carries they need: a
shift-and-add over the constant's signed digits when one operand is
wholly public (a model weight), a Baugh–Wooley array otherwise.  A sum
(``fp_sum``) builds each such array on its own, to the bits it reads
of the product, and sums the products with its other terms in one
column reducer; ``fp_mul`` is the one-product sum.  The products of one
value with several public constants (the kernel entries that a
convolution's windows read at one input pixel) can share that
shift-and-add's adders (``fp_mul_consts``).
A value certified to fit b < w bits (see
``cnn.NetworkSpec.certificate``) can be built narrow: a sum of many
terms (``fp_sum``) reads each term at its own bits, sums them in one
column reducer modulo 2^b and copies bit b-1 upward as wires, a
constant multiply planned for b-bit
operands reads only the low b bits and builds each product only to the
bits its sum reads, and a ReLU of width b selects only
the bits below b-1, its output's bits from b-1 up being public zeros.
ReLU and max are computed exactly through oblivious selection: their
outputs are bitwise identical to one of the inputs (or to zero) and add
no numerical error.

Each operation is defined once, by its circuit, with one integer form
beside it (``int_mul``, ``int_sum``, ``int_relu``, ``int_max``): the
op's exact result on lane integers or arrays, after checking it against
the format's range or the narrower widths the circuit is built for and
raising OverflowDiagnostic instead of wrapping, since a silent wrap voids
the error analysis.  The clear backend's branch of each op calls its
form, and on a clear backend with ``fast_arith`` the layers of
:mod:`gatecnn.cnn` run as whole-array calls of the same forms and charge
the gate counter the NANDs the circuits they stand for evaluate once
public constants fold.  The charge is the gate path's own layer walk
run over public_patterns instead of ciphertexts, each of these
operations replaced by its (NANDs, output pattern) from ``fold_costs``,
``sum_costs`` or ``const_mul_costs``.  Those counts come from the same
functions the gate path runs (the op itself, or a constant multiply's
plan walked by ``gates.const_mul_walk`` with ``gates.const_mul_step``)
evaluated once per operand pattern on a one-lane ``FoldProbe``, whose
bits are public constants or one private bit without a value, and kept
for the process; operands whose bits are all public fold every gate and
are charged 0 without a probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    FormatMismatchError,
    OverflowDiagnostic,
    ParameterError,
    RangeError,
)
from .fhe_core import ClearBackend, EncBit, FoldProbe
from .gates import BitVector

__all__ = [
    "FixedPointFormat",
    "FixedPointCipher",
    "encode",
    "decode",
    "decode_lanes",
    "fp_add",
    "fp_sum",
    "fp_sub",
    "fp_mul",
    "fp_mul_const",
    "fp_mul_consts",
    "fp_geq_zero",
    "fp_relu",
    "fp_max",
    "fold_costs",
    "sum_costs",
    "const_mul_costs",
    "public_pattern",
]

# Widest format.  Formats are read from untrusted files, and a format's
# circuits grow with w (a private-operand multiplier by about w^2 gates,
# each run in Python when a charge is probed) while theorem_bound needs
# 1/scale as a float, so a file may not ask for an unbounded one.
MAX_TOTAL_BITS = 64


@dataclass(frozen=True)
class FixedPointFormat:
    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= MAX_TOTAL_BITS:
            raise ParameterError(f"total_bits must be in [2, {MAX_TOTAL_BITS}]")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ParameterError("frac_bits must satisfy 0 <= f < w")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def min_int(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_int(self) -> int:
        return (1 << (self.total_bits - 1)) - 1


class FixedPointCipher:
    """A BitVector tagged with its fixed-point format."""

    __slots__ = ("bits", "fmt", "_lane_cache")

    def __init__(self, bits: BitVector, fmt: FixedPointFormat):
        if bits.width != fmt.total_bits:
            raise FormatMismatchError(
                f"bit width {bits.width} does not match format w={fmt.total_bits}")
        self.bits = bits
        self.fmt = fmt
        self._lane_cache = None

    @property
    def backend(self):
        return self.bits.backend


def _check_formats(a: FixedPointCipher, b: FixedPointCipher) -> None:
    if a.fmt != b.fmt:
        raise FormatMismatchError(f"format mismatch: {a.fmt} vs {b.fmt}")


def float_to_scaled(r: float, fmt: FixedPointFormat) -> int:
    """floor(r * scale), rejecting values outside the representable range."""
    scaled = float(r) * fmt.scale
    if not math.isfinite(scaled):
        raise RangeError(f"value {r!r} times scale 2^{fmt.frac_bits} is not a finite number")
    z = math.floor(scaled)
    if not fmt.min_int <= z <= fmt.max_int:
        shown = z if abs(z) < 10 ** 20 else f"{scaled:.6g}"  # not 100+ digits
        raise RangeError(
            f"value {r!r} needs integer {shown}, outside "
            f"[{fmt.min_int}, {fmt.max_int}] of w={fmt.total_bits}")
    return z


def encode(r: float, fmt: FixedPointFormat, backend, encrypt: bool = True) -> FixedPointCipher:
    """Scale, floor and bit-encode a real. ``encrypt=False`` yields the
    public (trivial-constant) encoding used for model parameters."""
    z = float_to_scaled(r, fmt)
    bits = BitVector.from_int(z, fmt.total_bits, backend, encrypt=encrypt)
    return FixedPointCipher(bits, fmt)


def encode_lanes(values, fmt: FixedPointFormat, backend: ClearBackend) -> FixedPointCipher:
    """Pack one value per clear lane (batch testing entry point)."""
    scaled = [float_to_scaled(v, fmt) for v in values]
    return FixedPointCipher(
        BitVector.from_lane_ints(scaled, fmt.total_bits, backend), fmt)


def decode(x: FixedPointCipher, lane: int = 0) -> float:
    """Decrypted two's-complement integer divided by the scale."""
    return _lane_values(x)[lane] / x.fmt.scale


def decode_lanes(x: FixedPointCipher):
    return [z / x.fmt.scale for z in _lane_values(x)]


def _lane_values(x: FixedPointCipher):
    if x._lane_cache is None:
        x._lane_cache = x.bits.to_lane_ints()
    return x._lane_cache


PRIVATE = (0, 0)  # the public_pattern of a word without public bits


def _signed(value: int, width: int) -> int:
    """The two's-complement integer of a width-bit pattern."""
    return value - (value >> (width - 1) << width)


def public_pattern(x: FixedPointCipher) -> tuple:
    """(public, value): masks of the bits of x that are public constants
    and of their values."""
    return _pattern_of([bit.public for bit in x.bits.bits])


def _from_ints(values, fmt: FixedPointFormat, backend, pattern=PRIVATE) -> FixedPointCipher:
    """One value per lane; the bits ``pattern`` marks public are the
    backend's public constants (they must agree with the values)."""
    bits = BitVector.from_lane_ints(values, fmt.total_bits, backend)
    public, value = pattern
    if public:
        bits = BitVector(backend.const((value >> i) & 1) if (public >> i) & 1 else bit
                         for i, bit in enumerate(bits.bits))
    out = FixedPointCipher(bits, fmt)
    out._lane_cache = list(values)
    return out


# ----------------------------------------------------------------------
# integer forms of the circuits: each op's exact result after its range
# check, run by the clear-backend branches below and by the whole-layer
# evaluator in cnn
# ----------------------------------------------------------------------

def int_dtype(fmt: FixedPointFormat):
    """Array dtype holding every product of two format integers exactly:
    int64 up to w = 32, Python ints above."""
    return np.int64 if fmt.total_bits <= 32 else object


def scaled_mul(za, zb, fmt: FixedPointFormat, out=None):
    """The product floored back to the scale, unchecked (``int_mul``
    checks); on arrays, into ``out`` when given."""
    product = za * zb if out is None else np.multiply(za, zb, out=out)
    product >>= fmt.frac_bits  # in place on arrays: no second temporary
    return product


def guard_range(values: np.ndarray, fmt: FixedPointFormat, what: str, bits=None,
                signed=True) -> None:
    """Raise OverflowDiagnostic naming the first of ``values`` (in C order)
    outside the range of ``bits`` (default w), signed or not as ``signed``
    says (each an int or an array broadcasting against values), where a
    circuit built that wide would silently wrap."""
    bits = fmt.total_bits if bits is None else bits
    span = np.left_shift(1, np.asarray(bits, dtype=int_dtype(fmt)))
    low, high = np.where(signed, -(span >> 1), 0), np.where(signed, span >> 1, span) - 1
    outside = (values < low) | (values > high)
    if outside.any():
        n, is_signed = (np.broadcast_to(v, values.shape)[outside][0] for v in (bits, signed))
        where = f"w={n} range" if n == fmt.total_bits and is_signed else \
            f"{n}-bit {'' if is_signed else 'unsigned '}range built for it"
        raise OverflowDiagnostic(
            f"{what} produced integer {values[outside][0]} outside the "
            f"{where}; the error bound no longer applies")


def int_mul(x, y, fmt: FixedPointFormat, widths, out=None):
    """``fp_mul`` at ``widths`` (b_x, b_y, b_p): the floored product (into
    ``out`` on arrays), after checking that x, y and it fit those bits."""
    for z, n in zip((x, y), widths[:2]):
        if n < fmt.total_bits:  # a w-bit word always fits w bits
            guard_range(z, fmt, "a multiplication operand", n)
    product = scaled_mul(x, y, fmt, out)
    guard_range(product, fmt, "multiplication", widths[2])
    return product


def int_sum(terms, fmt: FixedPointFormat, term_bits, signed, bits=None):
    """``fp_sum`` at ``bits`` (default w): the sum over the last axis of
    ``terms``, after checking each term against ``term_bits`` and
    ``signed`` and the sum against ``bits`` (each may broadcast)."""
    guard_range(terms, fmt, "a sum term", term_bits, signed)
    total = terms.sum(axis=-1)
    guard_range(total, fmt, "addition", bits)
    return total


def int_relu(z, fmt: FixedPointFormat, width):
    """``fp_relu`` at ``width``: max(z, 0), after checking that z fits the
    width, below whose sign bit the circuit selects."""
    guard_range(z, fmt, "a ReLU operand", width)
    return np.maximum(z, 0)


def int_max(a, b, fmt: FixedPointFormat, what: str = "comparison"):
    """A pairwise step of ``fp_max``: max(a, b), after checking that a - b
    fits w bits, as its comparison and ``fp_sub`` (``what``) need."""
    guard_range(a - b, fmt, what)
    return np.maximum(a, b)


def _low_bits(x: FixedPointCipher, width: int) -> BitVector:
    """The lowest ``width`` bits of x."""
    return x.bits if width == x.fmt.total_bits else BitVector(x.bits.bits[:width])


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def fp_add(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Exact fixed-point sum; adds no representation error."""
    _check_formats(a, b)
    if isinstance(a.backend, ClearBackend):
        int_sum(np.stack([_lane_array(a), _lane_array(b)], axis=-1), a.fmt, None, True)
    return FixedPointCipher(gates.add(a.bits, b.bits), a.fmt)


def fp_sum(terms, widths, bits: int | None = None) -> FixedPointCipher:
    """Exact sum of ``terms`` from one column reducer (``gates.sum_words``);
    adds no representation error.

    Term i is a value read at widths[i] = (n, signed): its low n bits as
    an unsigned integer or in two's complement, which must hold it; or a
    pair (x, y) read at fp_mul's widths[i] = (b_x, b_y, b_p): their
    floored product, from the shift-and-add ``gates.mul_const`` by y or
    else x when wholly public, else from their Baugh–Wooley array
    (``gates.mul_wallace``) built on its own, read at (b_p, signed).  Built
    apart, a product drops the carries out of its bit b_p - 1, which the
    reducer would have to sum up to its root if it took the product's
    partial products among its own columns.  It works modulo
    2^``bits`` (default w), certified to hold the sum, whose bits from
    ``bits`` up are wires copying its bit bits - 1; the clear backend
    checks every term, product operand and the sum fit."""
    ciphers = [x for term in terms for x in (term if isinstance(term, tuple) else (term,))]
    for x in ciphers[1:]:
        _check_formats(ciphers[0], x)
    fmt, backend = ciphers[0].fmt, ciphers[0].backend
    f, w = fmt.frac_bits, fmt.total_bits
    bits = w if bits is None else bits
    if isinstance(backend, ClearBackend):  # a product is read at (b_p, signed)
        values = [_lane_array(term) if len(width) == 2 else
                  int_mul(*map(_lane_array, term), fmt, width) for term, width in zip(terms, widths)]
        int_sum(np.stack(values, axis=-1), fmt,
                *zip(*(width if len(width) == 2 else (width[2], True) for width in widths)), bits)
    words = []
    for term, width in zip(terms, widths):
        if len(width) == 2:
            words.append((term.bits.bits[:width[0]], width[1]))
            continue
        for x, y, n in ((term[0], term[1], width[0]), (term[1], term[0], width[1])):
            public, value = public_pattern(y)
            if public == (1 << w) - 1:
                product = gates.mul_const(_low_bits(x, n), _signed(value, w), f, f + w)
                break
        else:
            product = gates.mul_wallace(_low_bits(term[0], width[0]), _low_bits(term[1], width[1]),
                                        f, f + width[2])
        words.append((product.bits[:width[2]], True))
    out = gates.sum_words(words, bits, backend)
    return FixedPointCipher(BitVector(out + out[-1:] * (w - bits)), fmt)


def _lane_array(x: FixedPointCipher) -> np.ndarray:
    return np.array(_lane_values(x), dtype=int_dtype(x.fmt))


def fp_sub(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    _check_formats(a, b)
    if isinstance(a.backend, ClearBackend):
        int_max(_lane_array(a), _lane_array(b), a.fmt, "subtraction")
    return FixedPointCipher(gates.sub(a.bits, b.bits), a.fmt)


def fp_mul(a: FixedPointCipher, b: FixedPointCipher, widths=None) -> FixedPointCipher:
    """Product floored back to the format's scale: bits f..f+w-1 of the
    exact double-width product, the only ones the circuit builds.

    The one-product ``fp_sum``: with one operand wholly public (b is tried
    first), the one-constant case of ``fp_mul_consts``, else the array of
    ``gates.mul_wallace``.  With ``widths`` (b_a, b_b, b_p), certified to
    hold a, b and the floored product, with f + b_p at most b_a + b_b,
    only a's low b_a bits and b's low b_b bits are read, product bits
    f..f+b_p-1 are built, and the bits above copy bit b_p - 1."""
    widths = widths or (a.fmt.total_bits,) * 3
    return fp_sum([(a, b)], [widths], widths[2])


def fp_mul_consts(x: FixedPointCipher, plan: gates.ConstMulPlan) -> list:
    """x times each public integer of plan.constants, floored back to the
    scale, with one shared adder graph (``gates.mul_consts``) for all of
    them.  ``plan`` is the ``gates.const_mul_plan`` of the constants and
    their reads at the window [f, f+w) for operands of plan.width bits, at
    most w: only x's lowest plan.width bits are read, so x must fit them,
    and only each product's bits below its read (bits, signed) are built,
    the bits above being copies of its top read bit when signed, else
    public zeros, so each product must fit its read.  Products that do
    are bit-identical to ``fp_mul`` by the constant's encoding; the clear
    backend checks both before building anything."""
    if isinstance(x.backend, ClearBackend):
        w = x.fmt.total_bits
        ks = np.array(plan.constants, dtype=int_dtype(x.fmt))[:, None]  # a row per constant
        products = int_mul(_lane_array(x), ks, x.fmt, (plan.width, w, w))
        bits, signed = (np.array(v)[:, None] for v in zip(*plan.reads))
        guard_range(products, x.fmt, "a sum term", bits, signed)
    return [FixedPointCipher(bits, x.fmt)
            for bits in gates.mul_consts(_low_bits(x, plan.width), plan)]


def fp_mul_const(a: FixedPointCipher, c: float) -> FixedPointCipher:
    """Multiply by a public real: bit-identical to ``fp_mul`` by its public
    encoding, the shift-and-add over the constant's signed digits (no gate
    for c = 0; ``fp_mul_consts``)."""
    f, w = a.fmt.frac_bits, a.fmt.total_bits
    return fp_mul_consts(a, gates.const_mul_plan((float_to_scaled(c, a.fmt),), w, f, f + w))[0]


def fp_geq_zero(x: FixedPointCipher) -> EncBit:
    """NOT of the sign bit: decodes to 1 iff x >= 0."""
    return gates.not_gate(x.bits.bits[-1])


def fp_relu(x: FixedPointCipher, width: int | None = None) -> FixedPointCipher:
    """Oblivious max(x, 0): output is bitwise x or bitwise zero.

    For an x that fits ``width`` bits (default w; the clear backend
    checks), only the bits below its sign bit width - 1 are selected: the
    output is >= 0 and fits, so its bits from width - 1 up are the public
    constant 0."""
    w = x.fmt.total_bits
    width = w if width is None else width
    if isinstance(x.backend, ClearBackend):
        int_relu(_lane_array(x), x.fmt, width)
    keep = fp_geq_zero(x)
    return FixedPointCipher(
        BitVector([gates.and_gate(keep, bit) for bit in x.bits.bits[:width - 1]]
                  + [x.backend.const(0)] * (w - width + 1)), x.fmt)


def fp_max(values) -> FixedPointCipher:
    """Left fold of oblivious pairwise max; ties keep the earlier element.

    Each pairwise step compares by subtraction sign, so elements must be
    within 2^(w-1) of each other (checked on the clear backend).
    """
    values = list(values)
    if not values:
        raise ParameterError("fp_max needs at least one value")
    cur = values[0]
    for nxt in values[1:]:
        _check_formats(cur, nxt)
        if isinstance(cur.backend, ClearBackend):
            int_max(_lane_array(cur), _lane_array(nxt), cur.fmt)
        take_next = gates.less_than(cur.bits, nxt.bits)
        cur = FixedPointCipher(gates.mux(take_next, nxt.bits, cur.bits), cur.fmt)
    return cur


_COST_OPS = {
    "mul": fp_mul,
    "add": lambda a, b, width: fp_add(a, b),
    "relu": lambda a, b, width: fp_relu(a, width),
    "maxfold": lambda a, b, width: fp_max([a, b]),
}


# (kind, format, width, a, b) of a fold_costs circuit, ("sum", format,
# patterns, widths, bits) of a sum_costs one and (negative, carries,
# width, and the sum's and term's public_patterns) of a mul_const step ->
# (NANDs, output public_pattern) of the circuit run on a FoldProbe over
# operands with those public_patterns.  A circuit's cost depends on
# nothing else, so every model in the process shares the entries.
_FOLDS = {}
_FOLDS_LIMIT = 1 << 17


def _probed(key, circuit):
    """(NANDs, output public_pattern) of ``circuit(probe)``, which returns
    output bits, run once on a FoldProbe and kept in _FOLDS under ``key``.
    The limit is checked after the run, so that entries the run keeps
    count too."""
    found = _FOLDS.get(key)
    if found is None:
        probe = FoldProbe()
        out = circuit(probe)
        found = probe.nand_count, _pattern_of([bit.public for bit in out])
        if len(_FOLDS) >= _FOLDS_LIMIT:
            _FOLDS.clear()
        _FOLDS[key] = found
    return found


def fold_costs(kind: str, fmt: FixedPointFormat, pairs, width=None) -> list:
    """(NANDs evaluated, output public_pattern) of one ``kind`` circuit at
    ``fmt`` for each (a, b) pair of operand public_patterns (``relu``
    ignores b).  ``width`` (default w) is an ``add``'s or a ``relu``'s
    width (``fp_add``, ``fp_relu``) and a ``mul``'s widths (``fp_mul``,
    default (w, w, w)); ``maxfold`` ignores it.  Counts depend on the
    formats, widths and public bits only, never on private values.  A
    ``relu`` or ``maxfold`` of wholly public operands folds every gate and
    is charged 0 (``_public_fold``); every other circuit runs once per key
    on a FoldProbe (``_probed``)."""
    w = fmt.total_bits
    if width is None:
        width = (w, w, w) if kind == "mul" else w
    out = []
    for a, b in pairs:
        def circuit(probe):
            x, y = (_probe_cipher(probe, fmt, pattern) for pattern in (a, b))
            return _COST_OPS[kind](x, y, width).bits.bits
        out.append(_public_fold(kind, fmt, a, b, width)
                   or _probed((kind, fmt, width, a, b), circuit))
    return out


def _public_fold(kind: str, fmt: FixedPointFormat, a: tuple, b: tuple, width: int):
    """(0, output public_pattern) of a ``relu`` of a at ``width`` or a
    ``maxfold`` of a, b when its operands are wholly public, so that every
    gate folds: the public integer the circuit computes.  Else None."""
    w, full = fmt.total_bits, (1 << fmt.total_bits) - 1
    if kind == "relu" and a[0] == full:
        return 0, (full, max(_signed(a[1], w), 0) & (1 << width - 1) - 1)
    if kind == "maxfold" and a[0] == b[0] == full:
        return 0, b if _signed(a[1] - b[1] & full, w) < 0 else a  # the sign of a - b picks
    return None


def sum_costs(fmt: FixedPointFormat, patterns, widths, bits: int):
    """(NANDs evaluated, output public_pattern) of ``fp_sum(terms, widths,
    bits)`` on terms with the public_patterns ``patterns``: a word's, or
    for a product the pair (x, y) of its operands'.

    Words whose read bits are all public fold every gate: they are
    charged 0, and the output is their integer sum.  Otherwise ``fp_sum``
    itself runs once per patterns, widths and bits on a FoldProbe
    (``_probed``)."""
    full = (1 << fmt.total_bits) - 1
    if all(len(width) == 2 and ~public & (1 << width[0]) - 1 == 0
           for (public, _), width in zip(patterns, widths)):
        total = sum(_signed(value & (1 << n) - 1, n) if signed else value & (1 << n) - 1
                    for (_, value), (n, signed) in zip(patterns, widths))
        return 0, (full, _signed(total & (1 << bits) - 1, bits) & full)

    def circuit(probe):
        terms = [tuple(_probe_cipher(probe, fmt, x) for x in pattern) if len(width) == 3
                 else _probe_cipher(probe, fmt, pattern)
                 for pattern, width in zip(patterns, widths)]
        return fp_sum(terms, widths, bits).bits.bits
    return _probed(("sum", fmt, tuple(patterns), tuple(widths), bits), circuit)


def _probe_bits(probe: FoldProbe, pattern: tuple, width: int) -> list:
    """``width`` bits of ``probe`` with the public_pattern ``pattern``."""
    public, value = pattern
    private = probe.encrypt_bit(0)
    if not public:
        return [private] * width
    return [probe.const(value >> i & 1) if public >> i & 1 else private for i in range(width)]


def _probe_cipher(probe: FoldProbe, fmt: FixedPointFormat, pattern: tuple) -> FixedPointCipher:
    """A cipher of ``probe`` with the public_pattern ``pattern``."""
    return FixedPointCipher(BitVector(_probe_bits(probe, pattern, fmt.total_bits)), fmt)


def _step_cost(step: gates.ConstMulStep, xs: tuple, ts: tuple):
    """(NANDs, output public_pattern) of ``gates.const_mul_step`` on sum
    and term bits ``xs`` and ``ts``, each a pair (count, public_pattern),
    run once per shape and patterns on a FoldProbe (``_probed``).  Its
    output covers the step's columns from its carries up."""
    return _probed((step.negative, step.carries, step.top - step.column, *xs, *ts), lambda probe:
                   gates.const_mul_step(step, *(_probe_bits(probe, p, n) for n, p in (xs, ts))))


def const_mul_costs(fmt: FixedPointFormat, ks, reads, width: int, patterns) -> list:
    """Per public_pattern of ``patterns``, the NANDs ``fp_mul_consts``
    evaluates on an x with that pattern, by the plan of the public
    integers ``ks`` read at ``reads`` for width-bit operands at fmt's
    window, and each constant's product public_pattern.

    An x whose lowest ``width`` bits (the ones the plan reads) are all
    public folds every gate: it is charged 0 and its products are
    computed as integers, each filled above its read as the gate path
    fills it.  The plan is made only if some x has a private
    bit there, once, and dropped on return.  ``gates.const_mul_walk``
    walks it over FoldProbe bits of each such x, and each step's cost is
    kept per shape and operand patterns (``_step_cost``), not per plan."""
    f, low, full = fmt.frac_bits, (1 << width) - 1, (1 << fmt.total_bits) - 1
    plan, out = None, []
    for pattern in patterns:
        if pattern[0] & low == low:  # every gate folds
            x = _signed(pattern[1] & low, width)
            out.append((0, [(full, _read(x * k >> f, *read) & full) for k, read in zip(ks, reads)]))
            continue
        if plan is None:
            plan = gates.const_mul_plan(ks, width, f, f + fmt.total_bits, reads)
        probe, nands = FoldProbe(), 0

        def step(st, xs, ts):
            nonlocal nands
            cost, found = _step_cost(st, *((len(bits), _pattern_of([bit.public for bit in bits]))
                                           for bits in (xs, ts)))
            nands += cost
            return _probe_bits(probe, found, st.top - st.column - st.carries)

        values = gates.const_mul_walk(plan, _probe_bits(probe, pattern, width), step)
        products = [_pattern_of([bit.public for bit in gates.const_mul_product(plan, values, j)])
                    for j in range(len(ks))]
        out.append((nands + probe.nand_count, products))
    return out


def _read(z: int, bits: int, signed: bool) -> int:
    """The integer of z's low ``bits`` bits, in two's complement when
    ``signed``, else unsigned."""
    z &= (1 << bits) - 1
    return _signed(z, bits) if signed and bits else z


def _pattern_of(states) -> tuple:
    """The public_pattern of per-bit states."""
    if states.count(None) == len(states):
        return PRIVATE
    public = value = 0
    for i, state in enumerate(states):
        if state is not None:
            public |= 1 << i
            value |= state << i
    return public, value
