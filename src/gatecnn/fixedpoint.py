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

On the clear backend with ``fast_arith`` enabled, each operation runs as
exact integer arithmetic with the same wraparound/floor semantics as the
circuits (the test suite pins bit-for-bit equality), and the gate counters
advance by the per-operation circuit cost so reports stay meaningful.
The clear backend also raises OverflowDiagnostic when a value leaves its
representable range, since a silent wrap voids the error analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _wrap(z: int, width: int) -> int:
    z &= (1 << width) - 1
    return z - (1 << width) if z >> (width - 1) else z


def _from_ints(values, fmt: FixedPointFormat, backend) -> FixedPointCipher:
    bits = BitVector.from_lane_ints(values, fmt.total_bits, backend)
    out = FixedPointCipher(bits, fmt)
    out._lane_cache = list(values)
    return out


def _fast(x: FixedPointCipher) -> bool:
    return x.backend.fast_arith


def _guard_range(values, fmt: FixedPointFormat, what: str) -> None:
    for z in values:
        if not fmt.min_int <= z <= fmt.max_int:
            raise OverflowDiagnostic(
                f"{what} produced integer {z} outside the w={fmt.total_bits} "
                "range; the error bound no longer applies")


# ----------------------------------------------------------------------
# circuit cost model: fast-arith mode advances the gate counters by the
# exact NAND count of the equivalent circuit (counts depend only on the
# format, never on values)
# ----------------------------------------------------------------------

_COST_CACHE: dict = {}


def _circuit_cost(kind: str, fmt: FixedPointFormat) -> int:
    key = (kind, fmt.total_bits, fmt.frac_bits)
    cost = _COST_CACHE.get(key)
    if cost is None:
        probe = ClearBackend()
        a = encode_const(0.0, fmt, probe)
        b = encode_const(0.0, fmt, probe)
        before = probe.stats.nand_count
        if kind == "add":
            _gate_add(a, b)
        elif kind == "sub":
            _gate_sub(a, b)
        elif kind == "mul":
            _gate_mul_bits(a, b)
        elif kind == "geq_zero":
            _gate_geq_zero(a)
        elif kind == "relu":
            _gate_relu(a)
        elif kind == "maxfold":
            _gate_max_fold(a, b)
        else:
            raise ParameterError(f"unknown circuit kind {kind!r}")
        cost = probe.stats.nand_count - before
        _COST_CACHE[key] = cost
    return cost


def _charge(x: FixedPointCipher, kind: str, times: int = 1) -> None:
    x.backend.stats.bump_nand(_circuit_cost(kind, x.fmt) * times)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def _gate_add(a, b):
    return FixedPointCipher(gates.add(a.bits, b.bits), a.fmt)


def fp_add(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Exact fixed-point sum; adds no representation error."""
    _check_formats(a, b)
    if _fast(a):
        za, zb = _lane_values(a), _lane_values(b)
        _guard_range([x + y for x, y in zip(za, zb)], a.fmt, "addition")
        _charge(a, "add")
        return _from_ints([_wrap(x + y, a.fmt.total_bits) for x, y in zip(za, zb)],
                          a.fmt, a.backend)
    out = _gate_add(a, b)
    _maybe_diagnose_add(a, b, +1)
    return out


def _gate_sub(a, b):
    return FixedPointCipher(gates.sub(a.bits, b.bits), a.fmt)


def fp_sub(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    _check_formats(a, b)
    if _fast(a):
        za, zb = _lane_values(a), _lane_values(b)
        _guard_range([x - y for x, y in zip(za, zb)], a.fmt, "subtraction")
        _charge(a, "sub")
        return _from_ints([_wrap(x - y, a.fmt.total_bits) for x, y in zip(za, zb)],
                          a.fmt, a.backend)
    out = _gate_sub(a, b)
    _maybe_diagnose_add(a, b, -1)
    return out


def _maybe_diagnose_add(a, b, sign):
    if not a.backend.is_encrypted:
        za, zb = _lane_values(a), _lane_values(b)
        _guard_range([x + sign * y for x, y in zip(za, zb)], a.fmt,
                     "addition" if sign > 0 else "subtraction")


def _gate_mul_bits(a, b) -> FixedPointCipher:
    f = a.fmt.frac_bits
    return FixedPointCipher(
        gates.mul_wallace(a.bits, b.bits, lo=f, hi=f + a.fmt.total_bits), a.fmt)


def fp_mul(a: FixedPointCipher, b: FixedPointCipher) -> FixedPointCipher:
    """Product floored back to the format's scale: bits f..f+w-1 of the
    exact double-width product, the only ones the circuit builds."""
    _check_formats(a, b)
    if _fast(a):
        za, zb = _lane_values(a), _lane_values(b)
        products = [(x * y) >> a.fmt.frac_bits for x, y in zip(za, zb)]
        _guard_range(products, a.fmt, "multiplication")
        _charge(a, "mul")
        return _from_ints([_wrap(p, a.fmt.total_bits) for p in products],
                          a.fmt, a.backend)
    out = _gate_mul_bits(a, b)
    if not a.backend.is_encrypted:
        za, zb = _lane_values(a), _lane_values(b)
        _guard_range([(x * y) >> a.fmt.frac_bits for x, y in zip(za, zb)],
                     a.fmt, "multiplication")
    return out


def fp_mul_const(a: FixedPointCipher, c: float) -> FixedPointCipher:
    """Multiply by a public real: the constant enters as noiseless bits,
    which makes half the partial products free on the encrypted backend."""
    zc = float_to_scaled(c, a.fmt)
    if _fast(a):
        za = _lane_values(a)
        products = [(x * zc) >> a.fmt.frac_bits for x in za]
        _guard_range(products, a.fmt, "constant multiplication")
        _charge(a, "mul")
        return _from_ints([_wrap(p, a.fmt.total_bits) for p in products],
                          a.fmt, a.backend)
    const = encode_const(zc / a.fmt.scale, a.fmt, a.backend)
    return fp_mul(a, const)


def _gate_geq_zero(x) -> EncBit:
    return gates.not_gate(x.bits.bits[-1])


def fp_geq_zero(x: FixedPointCipher) -> EncBit:
    """NOT of the sign bit: decodes to 1 iff x >= 0."""
    if _fast(x):
        _charge(x, "geq_zero")
        mask = 0
        for lane, z in enumerate(_lane_values(x)):
            mask |= (1 if z >= 0 else 0) << lane
        return x.backend.from_mask(mask)
    return _gate_geq_zero(x)


def _gate_relu(x) -> FixedPointCipher:
    keep = _gate_geq_zero(x)
    return FixedPointCipher(
        BitVector(gates.and_gate(keep, bit) for bit in x.bits.bits), x.fmt)


def fp_relu(x: FixedPointCipher) -> FixedPointCipher:
    """Oblivious max(x, 0): output is bitwise x or bitwise zero."""
    if _fast(x):
        _charge(x, "relu")
        return _from_ints([z if z >= 0 else 0 for z in _lane_values(x)],
                          x.fmt, x.backend)
    return _gate_relu(x)


def _gate_max_fold(cur, nxt) -> FixedPointCipher:
    take_next = gates.less_than(cur.bits, nxt.bits)
    return FixedPointCipher(gates.mux(take_next, nxt.bits, cur.bits), cur.fmt)


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
        if not cur.backend.is_encrypted:
            _diagnose_compare_range(cur, nxt)
        if _fast(cur):
            _charge(cur, "maxfold")
            zc, zn = _lane_values(cur), _lane_values(nxt)
            cur = _from_ints(
                [n if _wrap(c - n, cur.fmt.total_bits) < 0 else c
                 for c, n in zip(zc, zn)],
                cur.fmt, cur.backend)
        else:
            cur = _gate_max_fold(cur, nxt)
    return cur


def _diagnose_compare_range(a, b):
    for za, zb in zip(_lane_values(a), _lane_values(b)):
        d = za - zb
        if not a.fmt.min_int <= d <= a.fmt.max_int:
            raise OverflowDiagnostic(
                f"comparison of values {d} apart exceeds the w="
                f"{a.fmt.total_bits} subtraction range")
