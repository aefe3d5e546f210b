"""Real arithmetic over encrypted bits via a scaled two's-complement format.

A real r is stored as the integer floor(r * scale) in ``total_bits`` bits,
``scale = 2**frac_bits``.  Multiplication keeps bits f..f+w-1 of the
exact product, i.e. the product arithmetic-shifted right by ``frac_bits``
(truncation toward -inf, the same floor as the encoding), so the extra
error of one multiply is one-sided and below 1/scale.  The multiplier
circuits build only those product bits and the carries they need: a
shift-and-add over the constant's signed digits when one operand is
wholly public (a model weight), a Wallace-tree array otherwise.  The
products of one value with several public constants (every kernel of a
convolution layer on one input channel) can share that shift-and-add's
adders (``fp_mul_consts``).  A value certified to fit b < w bits (see
``cnn.NetworkSpec.certificate``) can be built narrow: an add of width b
ripples over the low b bits and copies bit b-1 upward as wires, a
constant multiply planned for b-bit operands reads only the low b bits,
and a ReLU of width b selects only the bits below b-1, its output's
bits from b-1 up being public zeros.
ReLU and max are computed exactly through oblivious selection: their
outputs are bitwise identical to one of the inputs (or to zero) and add
no numerical error.

Each operation is defined once, by its circuit.  On the clear backend it
also checks its exact integer result against the format's range (or the
narrower width it is built for) and raises OverflowDiagnostic instead of
wrapping, since a silent wrap voids the error analysis.  Those checks
share the integer semantics written out here (``scaled_mul``,
``guard_range``) with the whole-layer evaluator in :mod:`gatecnn.cnn`:
on a clear backend with ``fast_arith``, layers run as whole-array integer
arithmetic and charge the gate counter the NANDs the circuits they stand
for evaluate once public constants fold (``fold_costs``).  Those counts
come from running each circuit once per operand pattern on a one-lane
``FoldProbe``, whose bits are public constants or private bits without a
value, and keeping the result for the process.
"""

from __future__ import annotations

import math
import operator
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
    "fp_sub",
    "fp_mul",
    "fp_mul_const",
    "fp_mul_consts",
    "fp_geq_zero",
    "fp_relu",
    "fp_max",
    "fold_costs",
    "const_mul_costs",
    "public_pattern",
]

# Widest format.  Formats are read from untrusted files, and a format's
# circuits grow with w (a Wallace multiplier by about w^2 gates, each run
# in Python when a charge is probed) while theorem_bound needs 1/scale as
# a float, so a file may not ask for an unbounded one.
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


def decode(x: FixedPointCipher, sk_oracle=None, lane: int = 0) -> float:
    """Decrypted two's-complement integer divided by the scale."""
    return _scaled_ints(x, sk_oracle)[lane] / x.fmt.scale


def decode_lanes(x: FixedPointCipher, sk_oracle=None):
    return [z / x.fmt.scale for z in _scaled_ints(x, sk_oracle)]


def _scaled_ints(x: FixedPointCipher, sk_oracle=None):
    backend = x.backend
    if backend.is_encrypted and sk_oracle is not None and backend.key is None:
        # a detached decryption oracle: decrypt bits directly
        from .fhe_core import decrypt_bit
        value = 0
        for i, b in enumerate(x.bits.bits):
            value |= decrypt_bit(sk_oracle, b.ciphertext) << i
        if value >> (x.fmt.total_bits - 1):
            value -= 1 << x.fmt.total_bits
        return [value]
    return _lane_values(x)


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
    bits = x.bits.bits
    public = value = 0
    if all(bit.public is None for bit in bits):
        return PRIVATE
    for i, bit in enumerate(bits):
        if bit.public is not None:
            public |= 1 << i
            value |= bit.public << i
    return public, value


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
# integer semantics of the circuits, shared by the clear-backend range
# diagnostics below and the whole-layer evaluator in cnn
# ----------------------------------------------------------------------

def int_dtype(fmt: FixedPointFormat):
    """Array dtype holding every product of two format integers exactly:
    int64 up to w = 32, Python ints above."""
    return np.int64 if fmt.total_bits <= 32 else object


def scaled_mul(za, zb, fmt: FixedPointFormat, out=None):
    """The product floored back to the scale, as ``fp_mul`` computes it;
    on arrays, into ``out`` when given."""
    product = za * zb if out is None else np.multiply(za, zb, out=out)
    product >>= fmt.frac_bits  # in place on arrays: no second temporary
    return product


def guard_range(values: np.ndarray, fmt: FixedPointFormat, what: str, bits=None) -> None:
    """Raise OverflowDiagnostic naming the first of ``values`` (in C order)
    outside the format's range, where the circuit would silently wrap, or
    outside the signed range of ``bits`` (an int or an array broadcasting
    against values), where a circuit built that narrow would."""
    if bits is None:
        low, high = fmt.min_int, fmt.max_int
    else:
        half = np.left_shift(1, np.asarray(bits, dtype=int_dtype(fmt)) - 1)
        low, high = -half, half - 1
    outside = (values < low) | (values > high)
    if outside.any():
        where = f"w={fmt.total_bits} range" if bits is None else \
            f"{np.broadcast_to(bits, values.shape)[outside][0]}-bit range built for it"
        raise OverflowDiagnostic(
            f"{what} produced integer {values[outside][0]} outside the "
            f"{where}; the error bound no longer applies")


def _diagnose(a: FixedPointCipher, b: FixedPointCipher, combine, what: str,
              bits=None) -> None:
    """Clear-backend range check of one operation on its exact integers."""
    if isinstance(a.backend, ClearBackend):
        za, zb = (np.array(_lane_values(x), dtype=int_dtype(a.fmt)) for x in (a, b))
        guard_range(combine(za, zb), a.fmt, what, bits)


def _low_bits(x: FixedPointCipher, width: int) -> BitVector:
    """The lowest ``width`` bits of x."""
    return x.bits if width == x.fmt.total_bits else BitVector(x.bits.bits[:width])


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def fp_add(a: FixedPointCipher, b: FixedPointCipher, width: int | None = None) -> FixedPointCipher:
    """Exact fixed-point sum; adds no representation error.

    With ``width`` (certified to hold the sum) the ripple adds only the
    lowest ``width`` bits, and the sum's bits above are wires copying its
    bit width - 1; the clear backend checks the sum fits."""
    _check_formats(a, b)
    w = a.fmt.total_bits
    width = w if width is None else width
    _diagnose(a, b, operator.add, "addition", None if width == w else width)
    out = gates.add(_low_bits(a, width), _low_bits(b, width))
    if width < w:
        out = BitVector(out.bits + out.bits[-1:] * (w - width))
    return FixedPointCipher(out, a.fmt)


def fp_sub(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    _check_formats(a, b)
    _diagnose(a, b, operator.sub, "subtraction")
    return FixedPointCipher(gates.sub(a.bits, b.bits), a.fmt)


def fp_mul(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Product floored back to the format's scale: bits f..f+w-1 of the
    exact double-width product, the only ones the circuit builds.

    When one operand is wholly public (b is tried first), its integer is a
    constant and the shift-and-add ``gates.mul_const`` multiplies by it,
    the one-constant case of ``fp_mul_consts``; otherwise the
    Baugh–Wooley/Wallace array does."""
    _check_formats(a, b)
    _diagnose(a, b, lambda za, zb: scaled_mul(za, zb, a.fmt), "multiplication")
    f, w = a.fmt.frac_bits, a.fmt.total_bits
    for x, y in ((a, b), (b, a)):
        public, value = public_pattern(y)
        if public == (1 << w) - 1:
            return FixedPointCipher(
                gates.mul_const(x.bits, _signed(value, w), lo=f, hi=f + w), a.fmt)
    return FixedPointCipher(gates.mul_wallace(a.bits, b.bits, lo=f, hi=f + w), a.fmt)


def fp_mul_consts(x: FixedPointCipher, plan: gates.ConstMulPlan, wanted) -> list:
    """x times each public integer plan.constants[j], j in ``wanted``,
    floored back to the scale: bit-identical to ``fp_mul`` by the
    constant's encoding, with one shared adder graph
    (``gates.mul_consts``) for all of them.  ``plan`` is the
    ``gates.const_mul_plan`` of the constants at the window [f, f+w) for
    operands of plan.width bits, at most w: only x's lowest plan.width
    bits are read, so x must fit them (the clear backend checks)."""
    if isinstance(x.backend, ClearBackend):
        zx = np.array(_lane_values(x), dtype=int_dtype(x.fmt))
        if plan.width < x.fmt.total_bits:
            guard_range(zx, x.fmt, "a multiplication operand", plan.width)
        for j in wanted:
            guard_range(scaled_mul(zx, plan.constants[j], x.fmt), x.fmt, "multiplication")
    return [FixedPointCipher(bits, x.fmt)
            for bits in gates.mul_consts(_low_bits(x, plan.width), plan, wanted)]


def fp_mul_const(a: FixedPointCipher, c: float, width: int | None = None) -> FixedPointCipher:
    """Multiply by a public real: bit-identical to ``fp_mul`` by its public
    encoding, the shift-and-add over the constant's signed digits (no gate
    for c = 0), here built for a's lowest ``width`` bits (default all w),
    which must hold a (``fp_mul_consts``)."""
    f, w = a.fmt.frac_bits, a.fmt.total_bits
    plan = gates.const_mul_plan((float_to_scaled(c, a.fmt),), w if width is None else width,
                                f, f + w)
    return fp_mul_consts(a, plan, [0])[0]


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
    if width < w and isinstance(x.backend, ClearBackend):
        guard_range(np.array(_lane_values(x), dtype=int_dtype(x.fmt)), x.fmt,
                    "a ReLU operand", width)
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
        _diagnose(cur, nxt, operator.sub, "comparison")
        take_next = gates.less_than(cur.bits, nxt.bits)
        cur = FixedPointCipher(gates.mux(take_next, nxt.bits, cur.bits), cur.fmt)
    return cur


_COST_OPS = {
    "mul": lambda a, b, width: fp_mul(a, b),
    "add": fp_add,
    "relu": lambda a, b, width: fp_relu(a, width),
    "maxfold": lambda a, b, width: fp_max([a, b]),
}


# (kind, format, width, a, b) of a fold_costs circuit, or (negative,
# carries, width, and the sum's and term's public_patterns) of a mul_const
# step -> (NANDs, output states) of that circuit on a FoldProbe, where a
# state is a bit's public value or None for a private bit.  A circuit's
# cost depends on nothing else, so every model in the process shares the
# entries.
_FOLDS = {}
_FOLDS_LIMIT = 1 << 17


def _folded(key, circuit, *operands):
    """(NANDs, output states) of ``circuit`` run once on a FoldProbe, on
    bit lists with the per-bit states ``operands``, kept under ``key``."""
    found = _FOLDS.get(key)
    if found is None:
        if len(_FOLDS) >= _FOLDS_LIMIT:
            _FOLDS.clear()
        probe = FoldProbe()
        out = circuit(*([probe.encrypt_bit(0) if state is None else probe.const(state)
                         for state in states] for states in operands))
        found = _FOLDS[key] = (probe.nand_count, [bit.public for bit in out])
    return found


def fold_costs(kind: str, fmt: FixedPointFormat, pairs, width: int | None = None) -> list:
    """(NANDs evaluated, output public_pattern) of one ``kind`` circuit at
    ``fmt`` for each (a, b) pair of operand public_patterns (``relu``
    ignores b).  ``width`` (default w) is an ``add``'s or a ``relu``'s
    width (``fp_add``, ``fp_relu``) and, for a ``mul`` by a wholly public
    operand, the other operand's (``fp_mul_const``); ``maxfold`` ignores
    it.  Counts depend on the formats, widths and public bits only, never
    on private values.  A ``mul`` with a wholly public operand is charged
    by walking its constant's plan (``const_mul_costs``); every other
    circuit runs once per key on a FoldProbe (``_folded``)."""
    w = fmt.total_bits
    width = w if width is None else width

    def circuit(a, b):
        a, b = (FixedPointCipher(BitVector(bits), fmt) for bits in (a, b))
        return _COST_OPS[kind](a, b, width).bits.bits

    out = []
    for a, b in pairs:
        found = _const_mul_cost(fmt, a, b, width) if kind == "mul" else None
        if found is None:
            nands, states = _folded((kind, fmt, width, a, b), circuit,
                                    _states(a, w), _states(b, w))
            found = nands, _pattern_of(states)
        out.append(found)
    return out


def _step_cost(step: gates.ConstMulStep, xs, ts):
    """(NANDs, output states) of one mul_const step on sum and term bits
    with the per-bit states ``xs`` and ``ts``."""
    key = (step.negative, step.carries, len(xs), *_pattern_of(xs), *_pattern_of(ts))
    return _folded(key, lambda xs, ts: gates.const_mul_step(step, xs, ts), xs, ts)


def _const_mul_cost(fmt: FixedPointFormat, a: tuple, b: tuple, width: int):
    """(NANDs, output public_pattern) of ``fp_mul_const`` on operands with
    public_patterns a, b, the other one built ``width`` bits wide, when
    one is wholly public, else None: the one-constant plan, walked by
    const_mul_costs."""
    w, f = fmt.total_bits, fmt.frac_bits
    full = (1 << w) - 1
    for x, (y_public, y_value) in ((a, b), (b, a)):
        if y_public == full:
            plan = gates.const_mul_plan((_signed(y_value, w),), width, f, f + w)
            (nands,), (pattern,) = const_mul_costs(fmt, plan, x, [[0]])
            return nands, pattern
    return None


def const_mul_costs(fmt: FixedPointFormat, plan: gates.ConstMulPlan, pattern, wanted_sets):
    """The NANDs ``fp_mul_consts(x, plan, wanted)`` evaluates for each
    ``wanted`` of ``wanted_sets``, and each constant's product
    public_pattern, for an x with public_pattern ``pattern``.

    Walks the plan's nodes over the per-bit states (public value, or
    None) of x's lowest plan.width bits, the ones the plan reads; a node's
    step is run once per shape and operand states (``_step_cost``), not
    once per plan.  A wanted set is charged the steps of the nodes its
    products read and the shared NOTs of each node a negative one of those
    steps reads."""
    width = plan.width
    low = (1 << width) - 1
    if pattern[0] & low == low:  # every gate folds
        x = _signed(pattern[1] & low, width)
        full = (1 << fmt.total_bits) - 1
        return [0] * len(wanted_sets), [(full, (x * k >> fmt.frac_bits) & full)
                                        for k in plan.constants]
    nands = {}

    def step(st, xs, ts):
        nands[st], out = _step_cost(st, xs, ts)
        return out

    values = gates.const_mul_walk(plan, _states(pattern, width), 0,
                                  range(1, len(plan.steps) + 1), step, _invert_state)
    charges = []
    for wanted in wanted_sets:
        nodes = [plan.steps[i - 1] for i in plan.closure(wanted)]
        negated = {st.term for st in nodes if st.negative and st.column < st.top}
        charges.append(sum(nands.get(st, 0) for st in nodes)
                       + sum([values[q][j] for j in plan.inverted[q]].count(None) for q in negated))
    products = [_pattern_of(gates.const_mul_product(plan, values, j, 0))
                for j in range(len(plan.constants))]
    return charges, products


def _invert_state(state):
    return state if state is None else 1 - state


def _pattern_of(states) -> tuple:
    """The public_pattern of per-bit states."""
    public = value = 0
    for i, state in enumerate(states):
        if state is not None:
            public |= 1 << i
            value |= state << i
    return public, value


def _states(pattern, width: int) -> list:
    """Per-bit public states of a public_pattern: the bit's value, or None."""
    public, value = pattern
    if not public:
        return [None] * width
    return [(value >> i) & 1 if (public >> i) & 1 else None for i in range(width)]
