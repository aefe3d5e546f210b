"""Bit encryption with a single homomorphic operation: NAND.

The scheme follows the matrix "approximate eigenvector" construction.
A secret vector ``s`` of length ``n+1`` (last entry fixed to 1) induces
``v = powers_of_two(s) = W @ s`` of length ``N = (n+1) * log2(q)``, with
``W`` the N x (n+1) gadget matrix.  A ciphertext is an ``N x N`` binary
matrix ``C = bit_decompose(M)`` with

    C @ v = M @ s = bit * v + e   (mod q),   |e| small,

and only its recomposition ``M = C @ W mod q`` is stored.  NAND is
``flatten(I - C_b @ C_a)``, i.e. ``M_out = W - C_b @ M_a (mod q)``: the
plaintexts live on the diagonal, so this computes ``1 - bit_a * bit_b``.
As ``C_b`` is binary, the product expands the left operand's noise by at
most ``N``; the right operand's noise enters additively.

Noise here means the lattice randomness that secures the ciphertext and
grows with every NAND; it is tracked pessimistically in
``Ciphertext.noise_estimate`` and is unrelated to the fixed-point
rounding error handled by :mod:`gatecnn.error_analysis`.

A clear (plaintext) backend implements the same bit contract for fast
oracle runs; it can evaluate many independent inputs at once by packing
one input per bit lane of a Python int.  A fold probe runs a circuit
without values to count the NANDs it evaluates once public constants
fold.
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
    "FoldProbe",
    "GswBackend",
    "PRESETS",
    "preset_params",
    "keygen",
    "encrypt_bit",
    "decrypt_bit",
    "nand",
    "refresh",
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
    noise_budget  max tolerated noise magnitude before decryption fails,
                  at most q/8, the correctness margin of the decoder
                  (None: q/8)
    preset        optional name, carried into serialized headers
    """

    lattice_dim: int
    log_q: int
    noise_stddev: float
    noise_budget: float | None = None
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
        if self.noise_budget is None:
            object.__setattr__(self, "noise_budget", self.modulus / 8.0)
        if not 0 < self.noise_budget <= self.modulus / 8:
            raise ParameterError(
                f"noise_budget {self.noise_budget} must be positive and at most "
                f"q/8 = {self.modulus / 8:g}, the decoder's correctness margin")
        if 2 * self.noise_stddev >= self.noise_budget:
            raise ParameterError("noise_stddev too large for the noise budget")

    @property
    def modulus(self) -> int:
        return 1 << self.log_q

    @property
    def ct_dim(self) -> int:
        return (self.lattice_dim + 1) * self.log_q


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


class Ciphertext:
    """One encrypted bit: its recomposed N x (n+1) matrix plus a noise bound.

    ``recomposed`` is ``M = C @ W mod q`` for the N x N binary GSW matrix
    ``C``, held in float64 (exact for the permitted moduli) so the hot
    matrix kernels run through BLAS; values are integers in [0, q).
    ``matrix`` derives ``C`` on demand, for NAND's right operand.
    ``trivial_value`` is set for the canonical noiseless encodings
    (0 -> zero matrix, 1 -> W, whose C is the identity), which are public
    constants.
    """

    __slots__ = ("recomposed", "noise_estimate", "params", "trivial_value")

    def __init__(self, recomposed: np.ndarray, noise_estimate: float,
                 params: FheParams, trivial_value: int | None = None):
        self.recomposed = np.asarray(recomposed, dtype=np.float64)
        self.noise_estimate = float(noise_estimate)
        self.params = params
        self.trivial_value = trivial_value

    @property
    def matrix(self) -> np.ndarray:
        """The N x N binary matrix C = bit_decompose(M)."""
        return _bit_decompose(self.recomposed, self.params)

    @property
    def is_trivial(self) -> bool:
        return self.trivial_value is not None


class EncBit:
    """A single bit under one backend: a clear lane mask or a ciphertext.

    ``public`` is the bit's value (0 or 1) when it is a public constant,
    made by a backend's ``const``; it is None for private data and for
    every evaluated NAND's output.
    """

    __slots__ = ("backend", "clear_value", "ciphertext", "public")

    def __init__(self, backend, clear_value=None, ciphertext=None, public=None):
        self.backend = backend
        self.clear_value = clear_value
        self.ciphertext = ciphertext
        self.public = public


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
        cached.flags.writeable = False  # shared by every trivial 1
        _WEIGHTS_CACHE[key] = cached
    return cached


def _bit_decompose(rows: np.ndarray, params: FheParams) -> np.ndarray:
    """Expand an (m, n+1) matrix over Z_q into its (m, N) binary decomposition."""
    shifts = np.arange(params.log_q, dtype=np.int64)
    ints = np.asarray(rows, dtype=np.int64)
    bits = (ints[:, :, None] >> shifts) & 1
    return bits.reshape(rows.shape[0], -1).astype(np.float64)


def _phase(sk: SecretKey, recomposed: np.ndarray) -> np.ndarray:
    """M @ s mod q (= C @ powers_of_two(s) mod q), in int64."""
    q = sk.params.modulus
    return (recomposed.astype(np.int64) @ (sk.secret_vector % q)) % q


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
    return Ciphertext(lwe, float(fresh_noise_bound(params)), params)


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
    value = int(_phase(sk, ct.recomposed[idx]))
    if value > q // 2:
        value -= q
    return 1 if q // 8 < value < 3 * q // 8 else 0


def refresh(sk: SecretKey, ct: Ciphertext, params: FheParams, rng_seed: int) -> Ciphertext:
    """Trusted re-encryption: same plaintext, fresh noise."""
    rng = _rng_from_seed(rng_seed, key=(0x7266,))
    return _refresh_with_rng(sk, ct, params, rng)


def _refresh_with_rng(sk: SecretKey, ct: Ciphertext, params: FheParams,
                      rng: np.random.Generator) -> Ciphertext:
    bit = decrypt_bit(sk, ct)
    return _encrypt_with_rng(sk, params, bit, rng)


def true_noise(sk: SecretKey, ct: Ciphertext) -> int:
    """Actual embedded noise magnitude (test instrumentation; needs the key)."""
    q = ct.params.modulus
    bit = _raw_decrypt(sk, ct)
    err = _phase(sk, ct.recomposed - bit * _decomp_weights(ct.params))
    err[err > q // 2] -= q
    return int(np.max(np.abs(err)))


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------

class _SeedScopeMixin:
    """Deterministic per-task randomness, independent of thread scheduling.

    Each scope owns one generator keyed by (backend seed, scope ids), so
    randomness depends on which task consumed it, never on the order the
    tasks ran in.  Scopes are thread-local: callers that share a backend
    across their own threads never draw on one another's scope.
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
    inputs.  ``const`` makes public bits, ``encrypt_bit`` (as on the
    encrypted backend) and ``from_mask`` (per lane) private ones.  With
    ``fast_arith``, CNN layers run as whole-array integer arithmetic with
    the circuits' semantics and charge the NANDs the circuits evaluate;
    single fixed-point operations always run gate by gate.
    """

    tag = "clear"
    is_encrypted = False

    def __init__(self, lanes: int = 1, fast_arith: bool = False):
        if lanes < 1:
            raise ParameterError("lanes must be >= 1")
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        self.fast_arith = fast_arith
        self.stats = GateStats()
        self._init_seeds(0)
        self._consts = (EncBit(self, clear_value=0, public=0),
                        EncBit(self, clear_value=self.lane_mask, public=1))

    def const(self, bit: int) -> EncBit:
        """The shared public constant ``bit``, in every lane."""
        if bit not in (0, 1):
            raise ParameterError("constant bit must be 0 or 1")
        return self._consts[bit]

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

    def reveal_bit(self, bit: EncBit, lane: int = 0) -> int:
        if not 0 <= lane < self.lanes:
            raise ParameterError(f"lane {lane} outside the backend's {self.lanes} lanes")
        return (bit.clear_value >> lane) & 1


class FoldProbe:
    """One-lane evaluation of how a circuit folds, for its NAND count.

    Its public bits are its two shared constants, as on a real backend,
    and its private bits are one shared bit without a value, handed out
    by ``encrypt_bit`` and by every evaluated ``nand``: folding reads only
    whether a bit is public, never a value, so a probe run allocates no
    bit per gate.  ``nand`` runs only for the gates the module-level
    ``nand`` does not fold, so ``nand_count`` is the count a real backend
    evaluates, and an output bit's ``public`` is what it is there, for
    any private data.  It is not a ClearBackend, so fixed-point ops run
    no range check on it.
    """

    def __init__(self):
        self.nand_count = 0
        self._consts = (EncBit(self, public=0), EncBit(self, public=1))
        self._private = EncBit(self)

    def const(self, bit: int) -> EncBit:
        return self._consts[bit]

    def encrypt_bit(self, bit: int) -> EncBit:
        """The private bit; its value ``bit`` is not kept."""
        return self._private

    def nand(self, a: EncBit, b: EncBit) -> EncBit:
        self.nand_count += 1
        return self._private


class GswBackend(_SeedScopeMixin):
    """Encrypted backend; all computation flows through NAND on matrices.

    key           enables encryption/decryption and the refresh oracle
    auto_refresh  re-encrypt a NAND's output once, as it is made, when it
                  could not be the left operand of a NAND with a fresh bit
                  without reaching noise_budget/2 (requires key; the
                  default when there is one)

    Every NAND whose result's tracked estimate would reach noise_budget
    raises NoiseExhaustionError.  With auto_refresh every bit the backend
    hands out satisfies ``estimate * ct_dim + fresh < noise_budget/2``, so
    only a bit from outside it (a loaded file) can trip that check.
    """

    tag = "gsw"
    is_encrypted = True
    lanes = 1
    fast_arith = False

    def __init__(self, params: FheParams, key: SecretKey | None = None,
                 seed: int = 0, auto_refresh: bool | None = None):
        if key is not None and key.params != params:
            raise ParameterError("secret key was generated under different parameters")
        self.params = params
        self.key = key
        if auto_refresh is None:
            auto_refresh = key is not None
        if auto_refresh and key is None:
            raise ParameterError("auto_refresh requires a refresh oracle (secret key)")
        self.auto_refresh = auto_refresh
        fresh = fresh_noise_bound(params)
        if auto_refresh and (params.ct_dim + 1) * fresh >= params.noise_budget / 2:
            raise ParameterError(
                "parameters cannot sustain auto-refresh: one NAND of fresh "
                "ciphertexts already exceeds half the noise budget"
            )
        self.stats = GateStats()
        self._init_seeds(seed)
        self._weights = _decomp_weights(params)
        self._consts = tuple(
            EncBit(self, ciphertext=Ciphertext(recomposed, 0.0, params, trivial_value=bit),
                   public=bit)
            for bit, recomposed in enumerate((np.zeros(self._weights.shape), self._weights)))

    # -- constants and data entry ------------------------------------

    def const(self, bit: int) -> EncBit:
        """The shared noiseless encoding of the public constant ``bit``."""
        if bit not in (0, 1):
            raise ParameterError("constant bit must be 0 or 1")
        return self._consts[bit]

    def encrypt_bit(self, bit: int) -> EncBit:
        if self.key is None:
            raise ParameterError("backend has no secret key; cannot encrypt")
        ct = _encrypt_with_rng(self.key, self.params, int(bit), self._scope_rng())
        self.stats.note_noise(ct.noise_estimate)
        return EncBit(self, ciphertext=ct)

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
            out = self._nand_general(ca, cb)
        self.stats.note_noise(out.noise_estimate)
        params = self.params
        if self.auto_refresh and (out.noise_estimate * params.ct_dim + fresh_noise_bound(params)
                                  >= params.noise_budget / 2):
            out = self._oracle_refresh(out)
        return EncBit(self, ciphertext=out)

    def _nand_with_trivial(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Algebraic shortcuts when an operand is a public constant.

        With C = bit * I the product collapses, so the estimate is exact:
        the surviving operand's noise passes through unamplified.
        """
        if ca.trivial_value == 0 or cb.trivial_value == 0:
            return self.const(1).ciphertext
        if ca.trivial_value == 1 and cb.trivial_value == 1:
            return self.const(0).ciphertext
        other = cb if ca.is_trivial else ca
        recomposed = np.mod(self._weights - other.recomposed, float(self.params.modulus))
        return Ciphertext(recomposed, other.noise_estimate, self.params)

    def _oracle_refresh(self, ct: Ciphertext) -> Ciphertext:
        out = _refresh_with_rng(self.key, ct, self.params, self._scope_rng())
        self.stats.bump_refresh()
        return out

    def _nand_general(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        # estimate(a) * ct_dim + estimate(b): the left operand lands under
        # the binary-matrix product
        estimate = ca.noise_estimate * self.params.ct_dim + cb.noise_estimate
        if not estimate < self.params.noise_budget:
            raise NoiseExhaustionError(
                f"NAND of bits with noise estimates {ca.noise_estimate:g} and "
                f"{cb.noise_estimate:g} would reach {estimate:g}, past the budget "
                f"{self.params.noise_budget:g}; refresh its operands first")
        # flatten(I - C_b @ C_a) recomposes to W - C_b @ M_a; a binary C_b
        # keeps the product exact in float64
        recomposed = np.mod(self._weights - cb.matrix @ ca.recomposed,
                            float(self.params.modulus))
        return Ciphertext(recomposed, estimate, self.params)


# ----------------------------------------------------------------------
# module-level operation surface
# ----------------------------------------------------------------------

def nand(a: EncBit, b: EncBit) -> EncBit:
    """The one homomorphic gate; everything else is built from it.

    A gate whose output public operands fix (either one is a public 0, or
    both are public) is folded: it returns the backend's shared public
    constant and is neither evaluated nor counted, so ``stats.nand_count``
    counts exactly the gates a backend evaluates.  NAND(public 1, x) is
    NOT x, one evaluated gate.  Folding reads public values only, so the
    gate trace still never depends on private data.
    """
    backend = a.backend
    if b.backend is not backend:
        raise BackendMismatchError("nand operands belong to different backends")
    if a.public == 0 or b.public == 0:
        return backend.const(1)
    if a.public is not None and b.public is not None:
        return backend.const(0)
    return backend.nand(a, b)


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
