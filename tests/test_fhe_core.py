import hashlib
import threading

import numpy as np
import pytest

from gatecnn import cnn
from gatecnn import fhe_core as fc
from gatecnn.demo import micro_model, synthetic_images
from gatecnn.errors import (
    BackendMismatchError,
    NoiseExhaustionError,
    ParameterError,
)
from gatecnn.gates import not_gate


def test_params_invariants(toy_params):
    assert toy_params.ct_dim == (toy_params.lattice_dim + 1) * toy_params.log_q
    assert toy_params.modulus == 2 ** toy_params.log_q
    assert 2 * toy_params.noise_stddev < toy_params.noise_budget


def test_bad_params_rejected():
    with pytest.raises(ParameterError):
        fc.FheParams(lattice_dim=0, log_q=10, noise_stddev=1.0)
    with pytest.raises(ParameterError):
        fc.FheParams(lattice_dim=4, log_q=40, noise_stddev=1.0)
    with pytest.raises(ParameterError):
        fc.FheParams(lattice_dim=4, log_q=10, noise_stddev=-1.0)
    with pytest.raises(ParameterError):
        fc.FheParams(lattice_dim=4, log_q=4, noise_stddev=8.0)  # 2*sigma >= q/8
    with pytest.raises(ParameterError):  # only an omitted budget means q/8
        fc.FheParams(lattice_dim=4, log_q=10, noise_stddev=1.0, noise_budget=0.0)
    assert fc.FheParams(lattice_dim=4, log_q=10, noise_stddev=1.0).noise_budget == 128.0


def test_keygen_small_custom_params():
    params = fc.FheParams(lattice_dim=4, log_q=10, noise_stddev=1.0)
    sk = fc.keygen(params, 1)
    assert len(sk.secret_vector) == 5
    assert sk.secret_vector[-1] == 1
    assert np.array_equal(sk.secret_vector, fc.keygen(params, 1).secret_vector)


def test_keygen_shape_and_determinism(toy_params):
    sk = fc.keygen(toy_params, 1)
    assert sk.secret_vector.shape == (toy_params.lattice_dim + 1,)
    assert sk.secret_vector[-1] == 1
    sk2 = fc.keygen(toy_params, 1)
    assert np.array_equal(sk.secret_vector, sk2.secret_vector)
    sk3 = fc.keygen(toy_params, 2)
    assert not np.array_equal(sk.secret_vector, sk3.secret_vector)


@pytest.mark.parametrize("bit", [0, 1])
def test_encrypt_decrypt_roundtrip(toy_params, toy_key, bit):
    for seed in range(50):
        ct = fc.encrypt_bit(toy_key, toy_params, bit, seed)
        assert fc.decrypt_bit(toy_key, ct) == bit
        assert ct.noise_estimate <= fc.fresh_noise_bound(toy_params)
        assert fc.true_noise(toy_key, ct) <= ct.noise_estimate


@pytest.mark.parametrize("preset", ["toy", "demo"])
def test_roundtrip_1000_seeds_per_preset(preset):
    params = fc.preset_params(preset)
    sk = fc.keygen(params, 2)
    backend = fc.GswBackend(params, key=sk, seed=1)
    for bit in (0, 1):
        for _ in range(1000):
            assert backend.reveal_bit(backend.encrypt_bit(bit)) == bit


@pytest.mark.parametrize("preset", ["toy", "demo"])
def test_nand_truth_table_1000_per_row_per_preset(preset):
    params = fc.preset_params(preset)
    sk = fc.keygen(params, 3)
    backend = fc.GswBackend(params, key=sk, seed=2)
    rows = {(a, b): 1 - (a & b) for a in (0, 1) for b in (0, 1)}
    for (a, b), want in rows.items():
        for _ in range(1000):
            out = fc.nand(backend.encrypt_bit(a), backend.encrypt_bit(b))
            assert backend.reveal_bit(out) == want


def test_ciphertext_entries_in_range(toy_params, toy_key):
    ct = fc.encrypt_bit(toy_key, toy_params, 1, 9)
    assert ct.matrix.min() >= 0
    assert ct.matrix.max() < toy_params.modulus


def test_nand_truth_table_both_backends(toy_params, toy_key):
    clear = fc.ClearBackend()
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=3)
    for backend in (clear, gsw):
        for a in (0, 1):
            for b in (0, 1):
                out = fc.nand(backend.encrypt_bit(a), backend.encrypt_bit(b))
                assert backend.reveal_bit(out) == 1 - (a & b), (backend.tag, a, b)


def test_nand_noise_monotone_growth(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=5)
    x = gsw.encrypt_bit(1)
    y = gsw.encrypt_bit(0)
    out = fc.nand(x, y)
    assert out.ciphertext.noise_estimate > max(
        x.ciphertext.noise_estimate, y.ciphertext.noise_estimate)
    # pinned combination rule: estimate(a) * ct_dim + estimate(b)
    assert out.ciphertext.noise_estimate == pytest.approx(
        x.ciphertext.noise_estimate * toy_params.ct_dim + y.ciphertext.noise_estimate)


def test_backend_mismatch_rejected(toy_params, toy_key):
    clear = fc.ClearBackend()
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=3)
    with pytest.raises(BackendMismatchError):
        fc.nand(clear.const(1), gsw.const(1))
    other = fc.ClearBackend()
    with pytest.raises(BackendMismatchError):
        fc.nand(clear.const(1), other.const(1))


def test_trivial_const_identities(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=4)
    one = gsw.const(1)
    zero = gsw.const(0)
    assert one.ciphertext.noise_estimate == 0.0
    # nand(1, x) = NOT x; nand(x, 0) = 1 (absorbing under AND)
    for bit in (0, 1):
        x = gsw.encrypt_bit(bit)
        assert gsw.reveal_bit(fc.nand(one, x)) == 1 - bit
        assert gsw.reveal_bit(fc.nand(x, zero)) == 1
        assert gsw.reveal_bit(fc.nand(zero, x)) == 1


def test_trivial_shortcut_estimates_are_exact(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=6)
    x = gsw.encrypt_bit(1)
    out = fc.nand(gsw.const(1), x)
    assert out.ciphertext.noise_estimate == x.ciphertext.noise_estimate
    assert fc.true_noise(toy_key, out.ciphertext) <= out.ciphertext.noise_estimate


def test_rated_depth_toy(toy_params):
    # frozen from the noise-growth harness: fresh bound 2, (N+1)=109,
    # budget 512 -> exactly one refresh-free balanced level
    assert fc.fresh_noise_bound(toy_params) == 2
    assert fc.rated_nand_depth(toy_params) == 1


def test_balanced_tree_at_rated_depth_decrypts(toy_params, toy_key):
    depth = fc.rated_nand_depth(toy_params)
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=8, auto_refresh=False,
                        eager_noise_check=True)
    for seed_block in range(30):
        leaves = [gsw.encrypt_bit(1) for _ in range(2 ** depth)]
        level = leaves
        expected = [1] * len(leaves)
        while len(level) > 1:
            level = [fc.nand(level[i], level[i + 1]) for i in range(0, len(level), 2)]
            expected = [1 - (expected[i] & expected[i + 1])
                        for i in range(0, len(expected), 2)]
        assert gsw.reveal_bit(level[0]) == expected[0]
        assert level[0].ciphertext.noise_estimate < toy_params.noise_budget


def test_chain_past_budget_raises_on_decrypt(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=9, auto_refresh=False,
                        eager_noise_check=False)
    x = gsw.encrypt_bit(1)
    while x.ciphertext.noise_estimate < toy_params.noise_budget:
        x = fc.nand(x, gsw.encrypt_bit(1))
    with pytest.raises(NoiseExhaustionError):
        fc.decrypt_bit(toy_key, x.ciphertext)
    with pytest.raises(NoiseExhaustionError):
        fc.refresh(toy_key, x.ciphertext, toy_params, 1)


def test_nan_noise_estimate_refused(toy_params, toy_key):
    ct = fc.encrypt_bit(toy_key, toy_params, 1, rng_seed=3)
    ct.noise_estimate = float("nan")
    with pytest.raises(NoiseExhaustionError):
        fc.decrypt_bit(toy_key, ct)
    with pytest.raises(NoiseExhaustionError):
        fc.refresh(toy_key, ct, toy_params, 1)


def test_eager_noise_check_raises_in_nand(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=10, auto_refresh=False,
                        eager_noise_check=True)
    x = gsw.encrypt_bit(1)
    with pytest.raises(NoiseExhaustionError):
        for _ in range(10):
            x = fc.nand(x, x)


def test_refresh_resets_noise_and_preserves_plaintext(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=11, auto_refresh=False,
                        eager_noise_check=True)
    x = fc.nand(gsw.encrypt_bit(1), gsw.encrypt_bit(1))  # encrypts 0
    noisy = x.ciphertext
    fresh = fc.refresh(toy_key, noisy, toy_params, 77)
    assert fc.decrypt_bit(toy_key, fresh) == 0
    assert fresh.noise_estimate < noisy.noise_estimate
    assert fresh.noise_estimate <= fc.fresh_noise_bound(toy_params)


def test_double_rated_depth_with_interposed_refresh(toy_params, toy_key):
    depth = fc.rated_nand_depth(toy_params)
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=12, auto_refresh=False,
                        eager_noise_check=True)
    x = gsw.encrypt_bit(1)
    value = 1
    for level in range(2 * depth):
        if x.ciphertext.noise_estimate > fc.fresh_noise_bound(toy_params):
            x = fc.EncBit(gsw, ciphertext=fc.refresh(
                toy_key, x.ciphertext, toy_params, 1000 + level))
        x = fc.nand(x, gsw.encrypt_bit(1))
        value = 1 - (value & 1)
    assert gsw.reveal_bit(x) == value


def test_auto_refresh_sustains_deep_chains(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=13, auto_refresh=True)
    x = gsw.encrypt_bit(1)
    value = 1
    for _ in range(60):
        x = fc.nand(x, gsw.encrypt_bit(1))
        value = 1 - (value & 1)
    assert gsw.reveal_bit(x) == value
    assert gsw.stats.refresh_count > 0
    assert gsw.stats.max_noise_seen < toy_params.noise_budget


def test_not_gate_of_noisy_bit_refreshes_once(toy_params, toy_key):
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=15, auto_refresh=True)
    noisy = fc.nand(gsw.encrypt_bit(1), gsw.encrypt_bit(0))
    assert noisy.ciphertext.noise_estimate > fc.fresh_noise_bound(toy_params)
    before = gsw.stats.refresh_count
    out = not_gate(noisy)
    assert gsw.stats.refresh_count - before == 1
    assert gsw.reveal_bit(out) == 0


def test_noise_soundness_random_dags(toy_params, toy_key):
    """While the tracked estimate stays below the budget, decryption never
    fails and the true noise never exceeds the estimate."""
    rng = np.random.default_rng(0)
    gsw = fc.GswBackend(toy_params, key=toy_key, seed=14, auto_refresh=False,
                        eager_noise_check=False)
    pool = [(gsw.encrypt_bit(int(b)), int(b)) for b in rng.integers(0, 2, 8)]
    for step in range(120):
        i, j = rng.integers(0, len(pool), 2)
        (ea, va), (eb, vb) = pool[i], pool[j]
        out = fc.nand(ea, eb)
        want = 1 - (va & vb)
        if out.ciphertext.noise_estimate < toy_params.noise_budget:
            assert fc.true_noise(toy_key, out.ciphertext) <= out.ciphertext.noise_estimate
            assert fc.decrypt_bit(toy_key, out.ciphertext) == want
            pool.append((out, want))
        else:
            pool[i] = (gsw.encrypt_bit(va), va)  # keep the pool decryptable


def test_gate_stats_concurrent_increments():
    stats = fc.GateStats()

    def bump():
        for _ in range(5000):
            stats.bump_nand()

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert stats.nand_count == 20000


# operand kinds: (is public, value)
_OPERAND_KINDS = [(public, value) for public in (True, False) for value in (0, 1)]


def _folds(a, b):
    """The fold rule: a public 0 operand, or two public operands."""
    return (a[0] and a[1] == 0) or (b[0] and b[1] == 0) or (a[0] and b[0])


@pytest.mark.parametrize("tag", ["clear", "gsw"])
def test_nand_folds_exactly_the_publicly_fixed_gates(tag, toy_params, toy_key):
    """Every public/private operand mix: a folded NAND returns the shared
    public constant and leaves nand_count alone; any other, NAND(public 1,
    x) included, is one evaluated and counted gate with a private output."""
    backend = (fc.ClearBackend() if tag == "clear"
               else fc.GswBackend(toy_params, key=toy_key, seed=9))

    def operand(kind):
        public, value = kind
        return backend.const(value) if public else backend.encrypt_bit(value)

    for a in _OPERAND_KINDS:
        for b in _OPERAND_KINDS:
            before = backend.stats.nand_count
            out = fc.nand(operand(a), operand(b))
            want = 1 - (a[1] & b[1])
            assert backend.reveal_bit(out) == want, (a, b)
            if _folds(a, b):
                assert out is backend.const(want), (a, b)
                assert backend.stats.nand_count == before, (a, b)
            else:
                assert out.public is None, (a, b)
                assert backend.stats.nand_count == before + 1, (a, b)


def test_fold_probe_lanes_follow_the_fold_rule():
    """One FoldProbe per operand mix: each counts and folds as a scalar
    NAND on those operands would."""
    for x, y in [(a, b) for a in _OPERAND_KINDS for b in _OPERAND_KINDS]:
        probe = fc.FoldProbe()
        a, b = (probe.const(value) if public else probe.encrypt_bit(value)
                for public, value in (x, y))
        out = fc.nand(a, b)
        folded = _folds(x, y)
        assert probe.nand_count == (0 if folded else 1), (x, y)
        assert (out.public is not None) == folded, (x, y)
        if folded:
            assert out.public == 1 - (x[1] & y[1]), (x, y)


def test_clear_lane_packing():
    backend = fc.ClearBackend(lanes=5)
    a = backend.from_mask(0b10110)
    b = backend.from_mask(0b11010)
    out = fc.nand(a, b)
    assert out.clear_value == (~(0b10110 & 0b11010)) & 0b11111
    assert backend.reveal_bit(out, lane=1) == 0


def test_seed_scope_determinism_across_threads(toy_params, toy_key):
    """Ciphertext bytes depend on the scope id, not the executing thread."""

    def run_in_thread(backend, scope):
        result = {}

        def task():
            with backend.seed_scope(scope):
                result["ct"] = backend.encrypt_bit(1).ciphertext.matrix

        t = threading.Thread(target=task)
        t.start()
        t.join()
        return result["ct"]

    b1 = fc.GswBackend(toy_params, key=toy_key, seed=21)
    b2 = fc.GswBackend(toy_params, key=toy_key, seed=21)
    direct = None
    with b2.seed_scope(9):
        direct = b2.encrypt_bit(1).ciphertext.matrix
    threaded = run_in_thread(b1, 9)
    assert np.array_equal(direct, threaded)


def test_auto_refresh_requires_key(toy_params):
    with pytest.raises(ParameterError):
        fc.GswBackend(toy_params, key=None, auto_refresh=True)


def test_keyless_backend_can_compute_but_not_decrypt(toy_params, toy_key):
    sender = fc.GswBackend(toy_params, key=toy_key, seed=30)
    server = fc.GswBackend(toy_params, seed=31)  # no key: compute only
    x = fc.EncBit(server, ciphertext=sender.encrypt_bit(1).ciphertext)
    y = fc.EncBit(server, ciphertext=sender.encrypt_bit(1).ciphertext)
    out = fc.nand(x, y)
    with pytest.raises(ParameterError):
        server.reveal_bit(out)
    with pytest.raises(ParameterError):
        server.encrypt_bit(0)
    assert fc.decrypt_bit(toy_key, out.ciphertext) == 0


def _produced_ciphertexts(backend):
    """One ciphertext of every kind a backend makes: encrypt, NAND,
    NAND with a trivial operand, refresh, and both constants."""
    x, y = backend.encrypt_bit(1), backend.encrypt_bit(0)
    return {
        "encrypt": x.ciphertext,
        "nand": fc.nand(x, y).ciphertext,
        "trivial_nand": fc.nand(backend.const(1), x).ciphertext,
        "refresh": fc.refresh(backend.key, x.ciphertext, backend.params, 0),
        "const0": backend.const(0).ciphertext,
        "const1": backend.const(1).ciphertext,
    }


@pytest.mark.parametrize("preset", ["toy", "demo"])
def test_ciphertexts_are_kept_recomposed(preset):
    """Every ciphertext holds only M = C @ W mod q, an N x (n+1) array
    with entries in [0, q); its binary C recomposes to exactly M, and
    C @ powers_of_two(s) = M @ s (mod q) is what decryption reads."""
    params = fc.preset_params(preset)
    sk = fc.keygen(params, 4)
    backend = fc.GswBackend(params, key=sk, seed=8)
    q = params.modulus
    weights = fc._decomp_weights(params)
    v = (weights.astype(np.int64) @ sk.secret_vector) % q
    for kind, ct in _produced_ciphertexts(backend).items():
        m = ct.recomposed
        assert m.shape == (params.ct_dim, params.lattice_dim + 1), kind
        assert m.min() >= 0 and m.max() < q, kind
        c = ct.matrix
        assert c.shape == (params.ct_dim, params.ct_dim), kind
        assert set(np.unique(c)) <= {0.0, 1.0}, kind
        assert np.array_equal((c @ weights) % q, m), kind
        via_c = (c.astype(np.int64) @ v) % q
        assert np.array_equal(via_c, (m.astype(np.int64) @ sk.secret_vector) % q), kind
    assert np.array_equal(backend.const(1).ciphertext.matrix, np.eye(params.ct_dim))


def test_golden_score_ciphertexts(toy_params, toy_key):
    """The encrypted micro model (private weights, auto-refresh) yields
    these exact score ciphertexts, noise estimates and counts."""
    backend = fc.GswBackend(toy_params, key=toy_key, seed=5, auto_refresh=True)
    net = micro_model()
    img = cnn.encrypt_image(synthetic_images(1, 2, 2)[0], net.fmt, backend, encrypt=True)
    scores = cnn.classify(img, net, encrypt_weights=True)
    digest = hashlib.sha256()
    for value in scores.scores:
        for bit in value.bits.bits:
            digest.update(bit.ciphertext.matrix.astype(np.int64).tobytes())
            digest.update(repr(bit.ciphertext.noise_estimate).encode())
    assert digest.hexdigest() == (
        "d47575fc7d87d8e79d688d6af82a568a0ec6f12d5d7b15b52b56469630d8ee18")
    assert backend.stats.snapshot() == (7896, 13512, 218.0)
