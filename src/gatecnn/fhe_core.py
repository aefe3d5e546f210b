"""Bit encryption with a single homomorphic operation: NAND.

The scheme follows the matrix "approximate eigenvector" construction.
A secret vector ``s`` of length ``n+1`` (last entry fixed to 1) induces
``v = powers_of_two(s)`` of length ``N = (n+1) * log2(q)``.  A ciphertext
is an ``N x N`` binary matrix ``C`` with

    C @ v = bit * v + e   (mod q),   |e| small.

NAND of two ciphertexts is ``flatten(I - C_b @ C_a)``: the plaintexts live
on the diagonal, so the identity-minus-product form computes
``1 - bit_a * bit_b``.  Because stored matrices are kept bit-decomposed
("flattened"), the product only expands the left operand's noise by a
factor of at most ``N``; the right operand's noise enters additively.

Noise here means the lattice randomness that secures the ciphertext and
grows with every NAND; it is tracked pessimistically in
``Ciphertext.noise_estimate`` and is unrelated to the fixed-point
rounding error handled by :mod:`gatecnn.error_analysis`.

A clear (plaintext) backend implements the same bit contract for fast
oracle runs; it can evaluate many independent inputs at once by packing
one input per bit lane of a Python int.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    BackendMismatchError,
    NoiseExhaustionError,
    ParameterError,
)

__all__ = [
    "FheParams",
    "SecretKey",
    "Ciphertext",
    "EncBit",
    "GateStats",
    "ClearBackend",
    "GswBackend",
    "PRESETS",
    "preset_params",
    "keygen",
    "encrypt_bit",
    "decrypt_bit",
    "nand",
    "refresh",
    "trivial_const",
    "fresh_noise_bound",
    "rated_nand_depth",
]

# float64 matmuls must stay exact; see FheParams validation.
_MAX_EXACT_LOG_Q = 24


@dataclass(frozen=True)
class FheParams:
    """Parameter set for the matrix bit-encryption scheme.

    lattice_dim   n, the LWE secret dimension
    log_q         bit size of the power-of-two modulus q
    noise_stddev  width of the centered-binomial fresh-noise sampler
    noise_budget  max tolerated noise magnitude before decryption fails
                  (defaults to q/8, the correctness margin of the decoder)
    preset        optional name, carried into serialized headers
    """

    lattice_dim: int
    log_q: int
    noise_stddev: float
    noise_budget: float = 0.0
    preset: str = "custom"

    def __post_init__(self):
        if self.lattice_dim < 1:
            raise ParameterError("lattice_dim must be positive")
        if not (1 <= self.log_q <= _MAX_EXACT_LOG_Q):
            raise ParameterError(
                f"log_q must be in [1, {_MAX_EXACT_LOG_Q}] "
                "(exact-arithmetic limit of the float64 matrix kernel)"
            )
        if self.noise_stddev <= 0:
            raise ParameterError("noise_stddev must be positive")
        if self.noise_budget == 0.0:
            object.__setattr__(self, "noise_budget", self.modulus / 8.0)
        if self.noise_budget <= 0:
            raise ParameterError("noise_budget must be positive")
        if 2 * self.noise_stddev >= self.noise_budget:
            raise ParameterError("noise_stddev too large for the noise budget")

    @property
    def modulus(self) -> int:
        return 1 << self.log_q

    @property
    def ct_dim(self) -> int:
        return (self.lattice_dim + 1) * self.log_q

    @staticmethod
    def validate_modulus(modulus: int, log_q: int) -> None:
        """Reject a (modulus, log_q) pair that is not a matching power of two."""
        if modulus < 2 or modulus & (modulus - 1):
            raise ParameterError(f"modulus {modulus} is not a power of two")
        if modulus != 1 << log_q:
            raise ParameterError(f"modulus {modulus} does not equal 2^{log_q}")


# Desk-scale presets. Neither offers real-world security; they exist so the
# circuits and the encrypted CNN can be exercised on one machine.
PRESETS = {
    "toy": FheParams(lattice_dim=8, log_q=12, noise_stddev=1.0, preset="toy"),
    "demo": FheParams(lattice_dim=32, log_q=16, noise_stddev=1.87, preset="demo"),
}

_PRESET_IDS = {"toy": 0, "demo": 1, "custom": 255}


def preset_params(name: str) -> FheParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ParameterError(f"unknown preset {name!r} (expected one of {sorted(PRESETS)})")


@dataclass(frozen=True)
class SecretKey:
    """Decryption trap door: vector of length lattice_dim+1, last entry 1."""

    secret_vector: np.ndarray
    params: FheParams

    def __post_init__(self):
        vec = np.asarray(self.secret_vector, dtype=np.int64)
        object.__setattr__(self, "secret_vector", vec)
        n = self.params.lattice_dim
        if vec.shape != (n + 1,):
            raise ParameterError(f"secret vector must have length {n + 1}")
        if vec[-1] != 1:
            raise ParameterError("secret vector must end in 1")

    @property
    def eigenvector(self) -> np.ndarray:
        """powers_of_two(s): the vector every ciphertext approximately scales."""
        cached = getattr(self, "_eigenvector", None)
        if cached is None:
            cached = _powers_of_two(self.secret_vector, self.params)
            object.__setattr__(self, "_eigenvector", cached)
        return cached


class Ciphertext:
    """One encrypted bit: an N x N bit-decomposed matrix plus a noise bound.

    Entries are held in float64 (exact for the permitted moduli) so the
    hot matrix kernels run through BLAS; values are integers in [0, q).
    ``trivial_value`` is set for the canonical noiseless encodings
    (0 -> zero matrix, 1 -> identity), which are public constants.
    """

    __slots__ = ("matrix", "noise_estimate", "params", "trivial_value")

    def __init__(self, matrix: np.ndarray, noise_estimate: float,
                 params: FheParams, trivial_value: int | None = None):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.noise_estimate = float(noise_estimate)
        self.params = params
        self.trivial_value = trivial_value

    @property
    def is_trivial(self) -> bool:
        return self.trivial_value is not None


class EncBit:
    """A single bit under one backend: a clear lane mask or a ciphertext."""

    __slots__ = ("backend", "clear_value", "ciphertext")

    def __init__(self, backend, clear_value=None, ciphertext=None):
        self.backend = backend
        self.clear_value = clear_value
        self.ciphertext = ciphertext

    @property
    def backend_tag(self) -> str:
        return self.backend.tag


class GateStats:
    """Evaluation counters; safe under concurrent increments."""

    __slots__ = ("_lock", "nand_count", "refresh_count", "max_noise_seen")

    def __init__(self):
        self._lock = threading.Lock()
        self.nand_count = 0
        self.refresh_count = 0
        self.max_noise_seen = 0.0

    def bump_nand(self, n: int = 1) -> None:
        with self._lock:
            self.nand_count += n

    def bump_refresh(self, n: int = 1) -> None:
        with self._lock:
            self.refresh_count += n

    def note_noise(self, estimate: float) -> None:
        with self._lock:
            if estimate > self.max_noise_seen:
                self.max_noise_seen = estimate

    def snapshot(self) -> tuple[int, int, float]:
        with self._lock:
            return (self.nand_count, self.refresh_count, self.max_noise_seen)


# ----------------------------------------------------------------------
# gadget decomposition helpers
# ----------------------------------------------------------------------

def _powers_of_two(secret: np.ndarray, params: FheParams) -> np.ndarray:
    shifts = np.arange(params.log_q, dtype=np.int64)
    return ((secret[:, None] % params.modulus) << shifts).ravel() % params.modulus


_WEIGHTS_CACHE: dict = {}


def _decomp_weights(params: FheParams) -> np.ndarray:
    """N x (n+1) matrix W with W[i*l + j, i] = 2^j, so M @ W inverts bit decomposition."""
    key = (params.lattice_dim, params.log_q)
    cached = _WEIGHTS_CACHE.get(key)
    if cached is None:
        n1 = params.lattice_dim + 1
        ell = params.log_q
        cached = np.zeros((n1 * ell, n1), dtype=np.float64)
        for i in range(n1):
            cached[i * ell:(i + 1) * ell, i] = 1 << np.arange(ell)
        _WEIGHTS_CACHE[key] = cached
    return cached


def _bit_decompose(rows: np.ndarray, params: FheParams) -> np.ndarray:
    """Expand an (m, n+1) matrix over Z_q into its (m, N) binary decomposition."""
    shifts = np.arange(params.log_q, dtype=np.int64)
    ints = np.asarray(rows, dtype=np.int64)
    bits = (ints[:, :, None] >> shifts) & 1
    return bits.reshape(rows.shape[0], -1).astype(np.float64)


def _flatten_recomposed(recomposed: np.ndarray, params: FheParams) -> np.ndarray:
    """Binary N x N matrix from an already-recomposed N x (n+1) image.

    For any matrix M, flatten(M) = bit_decompose(M @ W mod q) preserves
    M @ powers_of_two(s) exactly; callers hand in M @ W directly, which
    keeps every kernel on skinny (n+1)-wide operands.
    """
    return _bit_decompose(np.mod(recomposed, float(params.modulus)), params)


def fresh_noise_bound(params: FheParams) -> int:
    """Hard support bound of the fresh-noise sampler (centered binomial)."""
    return max(1, round(2.0 * params.noise_stddev ** 2))


def _sample_noise(params: FheParams, rng: np.random.Generator, size: int) -> np.ndarray:
    k = fresh_noise_bound(params)
    return rng.binomial(2 * k, 0.5, size=size).astype(np.int64) - k


def _rng_from_seed(seed: int, key: tuple = ()) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


# ----------------------------------------------------------------------
# scheme operations
# ----------------------------------------------------------------------

def keygen(params: FheParams, rng_seed: int) -> SecretKey:
    """Sample a secret vector; deterministic for a fixed seed."""
    FheParams.validate_modulus(params.modulus, params.log_q)
    rng = _rng_from_seed(rng_seed, key=(0x6B65,))
    vec = rng.integers(0, params.modulus, size=params.lattice_dim + 1, dtype=np.int64)
    vec[-1] = 1
    return SecretKey(vec, params)


def encrypt_bit(sk: SecretKey, params: FheParams, bit: int, rng_seed: int) -> Ciphertext:
    rng = _rng_from_seed(rng_seed, key=(0x656E,))
    return _encrypt_with_rng(sk, params, bit, rng)


def _encrypt_with_rng(sk: SecretKey, params: FheParams, bit: int,
                      rng: np.random.Generator) -> Ciphertext:
    if bit not in (0, 1):
        raise ParameterError(f"plaintext bit must be 0 or 1, got {bit!r}")
    n, q, nn = params.lattice_dim, params.modulus, params.ct_dim
    uniform = rng.integers(0, q, size=(nn, n), dtype=np.int64)
    noise = _sample_noise(params, rng, nn)
    # LWE rows: A @ s = e (mod q) with s = (secret[:n], 1)
    last = (noise - uniform @ sk.secret_vector[:n]) % q
    lwe = np.concatenate([uniform, last[:, None]], axis=1)
    if bit:
        # flatten(I + bit_decompose(A)) recomposes to W + A
        lwe = (lwe + _decomp_weights(params).astype(np.int64)) % q
    matrix = _bit_decompose(lwe, params)
    return Ciphertext(matrix, float(fresh_noise_bound(params)), params)


def decrypt_bit(sk: SecretKey, ct: Ciphertext) -> int:
    """Recover the bit; refuses when the tracked noise reached the budget
    (or is not a number, which no comparison would catch)."""
    params = ct.params
    if not ct.noise_estimate < params.noise_budget:
        raise NoiseExhaustionError(
            f"noise estimate {ct.noise_estimate:.1f} reached the budget "
            f"{params.noise_budget:.1f}; a refresh was required earlier"
        )
    return _raw_decrypt(sk, ct)


def _raw_decrypt(sk: SecretKey, ct: Ciphertext) -> int:
    params = ct.params
    q = params.modulus
    # Row where the eigenvector carries coefficient q/4 on the trap-door 1.
    idx = params.lattice_dim * params.log_q + params.log_q - 2
    value = int(ct.matrix[idx] @ sk.eigenvector) % q
    if value > q // 2:
        value -= q
    return 1 if q // 8 < value < 3 * q // 8 else 0


def refresh(sk_oracle: SecretKey, ct: Ciphertext, params: FheParams, rng_seed: int) -> Ciphertext:
    """Trusted re-encryption: same plaintext, fresh noise."""
    rng = _rng_from_seed(rng_seed, key=(0x7266,))
    return _refresh_with_rng(sk_oracle, ct, params, rng)


def _refresh_with_rng(sk_oracle: SecretKey, ct: Ciphertext, params: FheParams,
                      rng: np.random.Generator) -> Ciphertext:
    bit = decrypt_bit(sk_oracle, ct)
    return _encrypt_with_rng(sk_oracle, params, bit, rng)


def true_noise(sk: SecretKey, ct: Ciphertext) -> int:
    """Actual embedded noise magnitude (test instrumentation; needs the key)."""
    params = ct.params
    q = params.modulus
    v = sk.eigenvector
    err = (ct.matrix @ v) % q
    bit = _raw_decrypt(sk, ct)
    if bit:
        err = (err - v) % q
    err = err.astype(np.int64)
    err[err > q // 2] -= q
    return int(np.max(np.abs(err)))


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------

class _SeedScopeMixin:
    """Deterministic per-task randomness, independent of thread scheduling.

    Each scope owns one generator keyed by (backend seed, scope ids), so
    randomness depends on which task consumed it, never on which worker
    thread ran the task or in what order tasks finished.
    """

    def _init_seeds(self, seed: int):
        self._entropy = seed
        self._tls = threading.local()

    def _scope_rng(self) -> np.random.Generator:
        rng = getattr(self._tls, "rng", None)
        if rng is None:
            rng = _rng_from_seed(self._entropy, key=getattr(self._tls, "key", ()))
            self._tls.rng = rng
        return rng

    @contextmanager
    def seed_scope(self, *scope_ids: int):
        """Pin randomness of the enclosed work to a task id, not a thread."""
        old_key = getattr(self._tls, "key", ())
        old_rng = getattr(self._tls, "rng", None)
        self._tls.key = tuple(scope_ids)
        self._tls.rng = None
        try:
            yield
        finally:
            self._tls.key = old_key
            self._tls.rng = old_rng


class ClearBackend(_SeedScopeMixin):
    """Plaintext oracle backend implementing the same bit contract.

    ``lanes`` packs that many independent evaluations into each bit
    (clear_value is a lane mask), so one pass over a circuit checks many
    inputs.  With ``fast_arith``, CNN layers run as whole-array integer
    arithmetic with the circuits' semantics and charge their circuits'
    NAND counts; single fixed-point operations always run gate by gate.
    """

    tag = "clear"
    is_encrypted = False

    def __init__(self, lanes: int = 1, fast_arith: bool = False, seed: int = 0):
        if lanes < 1:
            raise ParameterError("lanes must be >= 1")
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        self.fast_arith = fast_arith
        self.stats = GateStats()
        self._init_seeds(seed)

    def const(self, bit: int) -> EncBit:
        if bit not in (0, 1):
            raise ParameterError("constant bit must be 0 or 1")
        return EncBit(self, clear_value=self.lane_mask if bit else 0)

    def encrypt_bit(self, bit: int) -> EncBit:
        """Private data entry: broadcasts a 0/1 value to every lane."""
        if bit not in (0, 1):
            raise ParameterError("plaintext bit must be 0 or 1")
        return EncBit(self, clear_value=self.lane_mask if bit else 0)

    def from_mask(self, mask: int) -> EncBit:
        """Data entry with a distinct bit per lane (already packed)."""
        if mask < 0 or mask > self.lane_mask:
            raise ParameterError("lane mask out of range")
        return EncBit(self, clear_value=mask)

    def nand(self, a: EncBit, b: EncBit) -> EncBit:
        if a.backend is not self or b.backend is not self:
            raise BackendMismatchError("nand operands belong to a different backend")
        self.stats.bump_nand()
        return EncBit(self, clear_value=(a.clear_value & b.clear_value) ^ self.lane_mask)

    def reveal_mask(self, bit: EncBit) -> int:
        return bit.clear_value

    def reveal_bit(self, bit: EncBit, lane: int = 0) -> int:
        return (bit.clear_value >> lane) & 1


class GswBackend(_SeedScopeMixin):
    """Encrypted backend; all computation flows through NAND on matrices.

    key               enables encryption/decryption and the refresh oracle
    auto_refresh      re-encrypt operands whenever a NAND result's tracked
                      noise would exceed noise_budget/2 (requires key)
    eager_noise_check with auto_refresh off, raise as soon as a NAND would
                      produce an undecryptable result; disable to let
                      estimates run past the budget and fail at decrypt
    """

    tag = "gsw"
    is_encrypted = True
    lanes = 1
    lane_mask = 1
    fast_arith = False

    def __init__(self, params: FheParams, key: SecretKey | None = None,
                 seed: int = 0, auto_refresh: bool | None = None,
                 eager_noise_check: bool = True):
        if key is not None and key.params != params:
            raise ParameterError("secret key was generated under different parameters")
        self.params = params
        self.key = key
        if auto_refresh is None:
            auto_refresh = key is not None
        if auto_refresh and key is None:
            raise ParameterError("auto_refresh requires a refresh oracle (secret key)")
        self.auto_refresh = auto_refresh
        self.eager_noise_check = eager_noise_check
        fresh = fresh_noise_bound(params)
        if auto_refresh and (params.ct_dim + 1) * fresh >= params.noise_budget / 2:
            raise ParameterError(
                "parameters cannot sustain auto-refresh: one NAND of fresh "
                "ciphertexts already exceeds half the noise budget"
            )
        self.stats = GateStats()
        self._init_seeds(seed)
        self._weights = _decomp_weights(params)
        self._identity = np.eye(params.ct_dim)

    # -- constants and data entry ------------------------------------

    def const(self, bit: int) -> EncBit:
        if bit not in (0, 1):
            raise ParameterError("constant bit must be 0 or 1")
        matrix = self._identity if bit else np.zeros(
            (self.params.ct_dim, self.params.ct_dim))
        return EncBit(self, ciphertext=Ciphertext(matrix, 0.0, self.params, trivial_value=bit))

    def encrypt_bit(self, bit: int) -> EncBit:
        if self.key is None:
            raise ParameterError("backend has no secret key; cannot encrypt")
        ct = _encrypt_with_rng(self.key, self.params, int(bit), self._scope_rng())
        self.stats.note_noise(ct.noise_estimate)
        return EncBit(self, ciphertext=ct)

    def from_mask(self, mask: int) -> EncBit:
        # single lane: a mask is just a bit
        return self.encrypt_bit(mask)

    def reveal_bit(self, bit: EncBit, lane: int = 0) -> int:
        if self.key is None:
            raise ParameterError("backend has no secret key; cannot decrypt")
        if lane != 0:
            raise ParameterError("gsw backend is single-lane")
        return decrypt_bit(self.key, bit.ciphertext)

    # -- the homomorphic operation ------------------------------------

    def nand(self, a: EncBit, b: EncBit) -> EncBit:
        if a.backend is not self or b.backend is not self:
            raise BackendMismatchError("nand operands belong to a different backend")
        self.stats.bump_nand()
        ca, cb = a.ciphertext, b.ciphertext

        if ca.is_trivial or cb.is_trivial:
            out = self._nand_with_trivial(ca, cb)
        else:
            ca, cb = self._maybe_refresh(ca, cb)
            out = self._nand_general(ca, cb)
        self.stats.note_noise(out.noise_estimate)
        return EncBit(self, ciphertext=out)

    def _nand_with_trivial(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Algebraic shortcuts when an operand is a public constant.

        With C = bit * I the product collapses, so the estimate is exact:
        the surviving operand's noise passes through unamplified.
        """
        params = self.params
        if ca.trivial_value == 0 or cb.trivial_value == 0:
            return self.const(1).ciphertext
        if ca.trivial_value == 1 and cb.trivial_value == 1:
            return self.const(0).ciphertext
        other = cb if ca.is_trivial else ca
        flat = _flatten_recomposed(self._weights - other.matrix @ self._weights, params)
        return Ciphertext(flat, other.noise_estimate, params)

    def _projected_noise(self, ca: Ciphertext, cb: Ciphertext) -> float:
        # estimate(out) = estimate(a) * ct_dim + estimate(b): the left
        # operand of nand lands under the binary-matrix product.
        return ca.noise_estimate * self.params.ct_dim + cb.noise_estimate

    def _maybe_refresh(self, ca: Ciphertext, cb: Ciphertext):
        params = self.params
        if self.auto_refresh:
            fresh = float(fresh_noise_bound(params))
            threshold = params.noise_budget / 2
            if self._projected_noise(ca, cb) >= threshold:
                same = ca is cb  # not_gate: one refresh serves both sides
                if ca.noise_estimate > fresh:
                    ca = self._oracle_refresh(ca)
                if same:
                    cb = ca
                elif cb.noise_estimate > fresh:
                    cb = self._oracle_refresh(cb)
        elif self.eager_noise_check:
            if self._projected_noise(ca, cb) >= params.noise_budget:
                raise NoiseExhaustionError(
                    "NAND result would exceed the noise budget "
                    "(enable auto_refresh or refresh operands manually)"
                )
        return ca, cb

    def _oracle_refresh(self, ct: Ciphertext) -> Ciphertext:
        out = _refresh_with_rng(self.key, ct, self.params, self._scope_rng())
        self.stats.bump_refresh()
        return out

    def refresh_bit(self, bit: EncBit) -> EncBit:
        if self.key is None:
            raise ParameterError("backend has no secret key; cannot refresh")
        if bit.ciphertext.is_trivial:
            return bit
        return EncBit(self, ciphertext=self._oracle_refresh(bit.ciphertext))

    def _nand_general(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        # flatten(I - C_b @ C_a) via its recomposition W - C_b @ (C_a @ W);
        # binary matrices keep every product exact in float64
        recomposed = self._weights - cb.matrix @ (ca.matrix @ self._weights)
        flat = _flatten_recomposed(recomposed, self.params)
        return Ciphertext(flat, self._projected_noise(ca, cb), self.params)


# ----------------------------------------------------------------------
# module-level operation surface
# ----------------------------------------------------------------------

def nand(a: EncBit, b: EncBit) -> EncBit:
    """The one homomorphic gate; everything else is built from it."""
    if a.backend is not b.backend:
        raise BackendMismatchError("nand operands belong to different backends")
    return a.backend.nand(a, b)


def trivial_const(bit: int, backend) -> EncBit:
    """A noiseless public constant usable in circuits on either backend."""
    return backend.const(bit)


def rated_nand_depth(params: FheParams) -> int:
    """Deepest balanced NAND tree of fresh encryptions whose worst-case
    tracked estimate stays below the budget (no refresh needed).

    Each balanced level maps estimate e -> e * (ct_dim + 1).
    """
    estimate = float(fresh_noise_bound(params))
    depth = 0
    while estimate * (params.ct_dim + 1) < params.noise_budget:
        estimate *= params.ct_dim + 1
        depth += 1
    return depth
