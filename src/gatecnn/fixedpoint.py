"""Real arithmetic over encrypted bits via a scaled two's-complement format.

A real r is stored as the integer floor(r * scale) in ``total_bits`` bits,
``scale = 2**frac_bits``.  Multiplication keeps bits f..f+w-1 of the
exact product, i.e. the product arithmetic-shifted right by ``frac_bits``
(truncation toward -inf, the same floor as the encoding), so the extra
error of one multiply is one-sided and below 1/scale.  The multiplier
circuit builds only those product bits and the carries they need.  ReLU
and max are computed exactly through oblivious selection: their outputs
are bitwise identical to one of the inputs (or to zero) and add no
numerical error.

Each operation is defined once, by its circuit.  On the clear backend it
also checks its exact integer result against the format's range and
raises OverflowDiagnostic instead of wrapping, since a silent wrap voids
the error analysis.  Those checks share the integer semantics written out
here (``scaled_mul``, ``guard_range``) with the whole-layer evaluator in
:mod:`gatecnn.cnn`: on a clear backend with ``fast_arith``, layers run as
whole-array integer arithmetic and charge the gate counter the NANDs of
the circuits they stand for (``circuit_cost``).
"""

from __future__ import annotations

import functools
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
from .fhe_core import ClearBackend, EncBit
from .gates import BitVector

__all__ = [
    "FixedPointFormat",
    "FixedPointCipher",
    "encode",
    "encode_const",
    "decode",
    "decode_lanes",
    "fp_add",
    "fp_sub",
    "fp_mul",
    "fp_mul_const",
    "fp_geq_zero",
    "fp_relu",
    "fp_max",
]


@dataclass(frozen=True)
class FixedPointFormat:
    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.total_bits < 2:
            raise ParameterError("total_bits must be at least 2")
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
    z = math.floor(r * fmt.scale)
    if not fmt.min_int <= z <= fmt.max_int:
        raise RangeError(
            f"value {r!r} needs integer {z}, outside "
            f"[{fmt.min_int}, {fmt.max_int}] of w={fmt.total_bits}")
    return z


def encode(r: float, fmt: FixedPointFormat, backend, encrypt: bool = True) -> FixedPointCipher:
    """Scale, floor and bit-encode a real. ``encrypt=False`` yields the
    public (trivial-constant) encoding used for model parameters."""
    z = float_to_scaled(r, fmt)
    bits = BitVector.from_int(z, fmt.total_bits, backend, encrypt=encrypt)
    return FixedPointCipher(bits, fmt)


def encode_const(r: float, fmt: FixedPointFormat, backend) -> FixedPointCipher:
    return encode(r, fmt, backend, encrypt=False)


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


def _from_ints(values, fmt: FixedPointFormat, backend) -> FixedPointCipher:
    bits = BitVector.from_lane_ints(values, fmt.total_bits, backend)
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


def scaled_mul(za, zb, fmt: FixedPointFormat):
    """The product floored back to the scale, as ``fp_mul`` computes it."""
    product = za * zb
    product >>= fmt.frac_bits  # in place on arrays: no second temporary
    return product


def guard_range(values: np.ndarray, fmt: FixedPointFormat, what: str) -> None:
    """Raise OverflowDiagnostic naming the first of ``values`` (in C order)
    outside the format's range, where the circuit would silently wrap."""
    outside = (values < fmt.min_int) | (values > fmt.max_int)
    if outside.any():
        raise OverflowDiagnostic(
            f"{what} produced integer {values[outside][0]} outside the "
            f"w={fmt.total_bits} range; the error bound no longer applies")


def _diagnose(a: FixedPointCipher, b: FixedPointCipher, combine, what: str) -> None:
    """Clear-backend range check of one operation on its exact integers."""
    if not a.backend.is_encrypted:
        za, zb = (np.array(_lane_values(x), dtype=int_dtype(a.fmt)) for x in (a, b))
        guard_range(combine(za, zb), a.fmt, what)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def fp_add(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Exact fixed-point sum; adds no representation error."""
    _check_formats(a, b)
    _diagnose(a, b, operator.add, "addition")
    return FixedPointCipher(gates.add(a.bits, b.bits), a.fmt)


def fp_sub(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    _check_formats(a, b)
    _diagnose(a, b, operator.sub, "subtraction")
    return FixedPointCipher(gates.sub(a.bits, b.bits), a.fmt)


def fp_mul(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Product floored back to the format's scale: bits f..f+w-1 of the
    exact double-width product, the only ones the circuit builds."""
    _check_formats(a, b)
    _diagnose(a, b, lambda za, zb: scaled_mul(za, zb, a.fmt), "multiplication")
    f = a.fmt.frac_bits
    return FixedPointCipher(
        gates.mul_wallace(a.bits, b.bits, lo=f, hi=f + a.fmt.total_bits), a.fmt)


def fp_mul_const(a: FixedPointCipher, c: float) -> FixedPointCipher:
    """Multiply by a public real: the constant enters as noiseless bits,
    which makes half the partial products free on the encrypted backend."""
    return fp_mul(a, encode_const(c, a.fmt, a.backend))


def fp_geq_zero(x: FixedPointCipher) -> EncBit:
    """NOT of the sign bit: decodes to 1 iff x >= 0."""
    return gates.not_gate(x.bits.bits[-1])


def fp_relu(x: FixedPointCipher) -> FixedPointCipher:
    """Oblivious max(x, 0): output is bitwise x or bitwise zero."""
    keep = fp_geq_zero(x)
    return FixedPointCipher(
        BitVector(gates.and_gate(keep, bit) for bit in x.bits.bits), x.fmt)


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
    "mul": fp_mul,
    "add": fp_add,
    "relu": lambda a, b: fp_relu(a),
    "maxfold": lambda a, b: fp_max([a, b]),
}


@functools.lru_cache(maxsize=None)
def circuit_cost(kind: str, fmt: FixedPointFormat) -> int:
    """NANDs of one ``kind`` circuit at ``fmt``, counted on a gate-level
    backend; counts depend only on the format, never on values."""
    probe = ClearBackend()
    a = encode_const(0.0, fmt, probe)
    _COST_OPS[kind](a, a)
    return probe.stats.nand_count
