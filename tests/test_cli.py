import argparse
import dataclasses
import hashlib
import itertools
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from gatecnn import cli, cnn, error_analysis, model_io, serialize
from gatecnn.demo import micro_model, tiny_model, write_demo_assets
from gatecnn.errors import NoiseExhaustionError
from gatecnn.fhe_core import preset_params
from gatecnn.fixedpoint import FixedPointFormat


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model_io.save_model(micro_model(), root / "micro.txt")
    rng = np.random.default_rng(17)
    model_io.save_csv(rng.uniform(-1, 1, (2, 2)), root / "img.csv")
    return root


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_keygen_deterministic(workdir):
    assert run("keygen", "--preset", "toy", "--seed", "1",
               "--out", workdir / "k1.key") == 0
    assert run("keygen", "--preset", "toy", "--seed", "1",
               "--out", workdir / "k2.key") == 0
    assert (workdir / "k1.key").read_bytes() == (workdir / "k2.key").read_bytes()
    loaded = serialize.load_secret_key(workdir / "k1.key")
    assert loaded.secret_vector[-1] == 1


def test_keygen_bad_preset(workdir, capsys):
    assert run("keygen", "--preset", "bogus", "--out", workdir / "x.key") == cli.EXIT_USAGE
    assert "preset" in capsys.readouterr().err


def test_keygen_requires_gsw(workdir):
    """keygen makes gsw keys only, so it has no ``--backend`` to ask for
    clear: the option is a usage error."""
    with pytest.raises(SystemExit) as exc:
        run("keygen", "--backend", "clear", "--out", workdir / "x.key")
    assert exc.value.code == cli.EXIT_USAGE
    assert not (workdir / "x.key").exists()


def test_encrypt_image_wrong_shape(workdir, capsys):
    model_io.save_csv(np.zeros((3, 3)), workdir / "bad.csv")
    code = run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "bad.csv", "--backend", "clear",
               "--out", workdir / "bad.bin")
    assert code == cli.EXIT_SHAPE
    err = capsys.readouterr().err
    assert "(1, 3, 3)" in err and "(1, 2, 2)" in err


def test_clear_pipeline(workdir, capsys):
    assert run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "clear",
               "--out", workdir / "enc.bin") == 0
    assert run("classify", "--model", workdir / "micro.txt",
               "--in", workdir / "enc.bin", "--out", workdir / "sc.bin") == 0
    assert run("decrypt-scores", "--in", workdir / "sc.bin",
               "--out", workdir / "scores.txt") == 0
    out = capsys.readouterr().out
    assert "argmax" in out
    assert (workdir / "scores.txt").exists()


def test_gsw_pipeline_and_rerun_determinism(workdir):
    """Two classify runs of one gsw image with the same seed write
    byte-identical scores, which decrypt to byte-identical text."""
    run("keygen", "--preset", "toy", "--seed", "3", "--out", workdir / "g.key")
    assert run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "gsw",
               "--key", workdir / "g.key", "--seed", "4",
               "--out", workdir / "genc.bin") == 0
    for tag in ("1", "2"):
        assert run("classify", "--model", workdir / "micro.txt",
                   "--in", workdir / "genc.bin", "--key", workdir / "g.key",
                   "--seed", "5", "--out", workdir / f"s{tag}.bin") == 0
        assert run("decrypt-scores", "--in", workdir / f"s{tag}.bin",
                   "--key", workdir / "g.key", "--out", workdir / f"d{tag}.txt") == 0
    assert (workdir / "s1.bin").read_bytes() == (workdir / "s2.bin").read_bytes()
    assert (workdir / "d1.txt").read_bytes() == (workdir / "d2.txt").read_bytes()


def test_gsw_clear_same_decrypted_scores(workdir):
    """The two backends accept the same pipeline and agree bit-for-bit."""
    clear_txt = (workdir / "scores.txt").read_text()
    gsw_txt = (workdir / "d1.txt").read_text()
    assert clear_txt == gsw_txt


def test_gsw_requires_key(workdir, capsys):
    code = run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "gsw",
               "--out", workdir / "nokey.bin")
    assert code == cli.EXIT_USAGE
    assert "--key" in capsys.readouterr().err


def test_classify_infers_backend_from_file(workdir):
    # no --backend flag needed; the file header names it
    assert run("classify", "--model", workdir / "micro.txt",
               "--in", workdir / "genc.bin", "--key", workdir / "g.key",
               "--seed", "5", "--out", workdir / "s_again.bin") == 0
    assert (workdir / "s_again.bin").read_bytes() == (workdir / "s1.bin").read_bytes()


def test_bound_internal_consistency(workdir, capsys):
    assert run("bound", "--model", workdir / "micro.txt") == 0
    out = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line and " " not in line)
    total = float(kv["total_bound"])
    delta = float(kv["initial_delta"])
    r_product = float(kv["r_product"])
    net = model_io.load_model(workdir / "micro.txt")
    d_product = 1.0
    for layer in net.layers:
        d_product *= max(np.linalg.norm(layer.weights[i]) for i in range(layer.out_channels))
    assert total == pytest.approx(delta * r_product * d_product, rel=1e-9)


def test_bound_empty_fc_only_model(workdir, capsys):
    # a linear head with a single unit weight: bound collapses to delta
    import gatecnn.cnn as cnn
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.FULLY_CONNECTED, 1, 1, np.array([[1.0]]),
                       np.zeros(1), cnn.LINEAR)],
        1, 1, model_io.load_model(workdir / "micro.txt").fmt)
    model_io.save_model(net, workdir / "unit.txt")
    assert run("bound", "--model", workdir / "unit.txt") == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
              if "=" in line and " " not in line)
    assert float(kv["total_bound"]) == pytest.approx(float(kv["initial_delta"]))


def test_bound_prints_certified_widths(workdir, capsys):
    """Per layer, b_x, the widest neuron sum (root) and the headroom to w.
    The micro model (w=10, f=5; one fc layer over 4 pixels in [-1, 1], ±32
    as integers) needs 7 input bits; its widest root comes from every
    corner of the inputs, the extremes of each floored product, summed
    with the bias."""
    assert run("bound", "--model", workdir / "micro.txt") == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("certified bit widths"))
    assert lines[start + 1].split() == ["layer", "b_x", "max", "b_s", "headroom"]
    net = model_io.load_model(workdir / "micro.txt")
    weights, biases = net.layers[0].scaled(net.fmt)
    widest = 0
    for corner in itertools.product((-32, 32), repeat=4):
        for node in range(2):
            total = int(biases[node]) + sum(x * int(z) >> 5 for x, z in zip(corner, weights[node]))
            widest = max(widest, (total if total >= 0 else ~total).bit_length() + 1)
    assert lines[start + 2].split() == ["0", "7", str(widest), str(10 - widest)]


def test_bound_prints_private_weight_widths(workdir, capsys):
    """Per layer, what the encrypted-weight circuits are built from and
    at: the micro model's 6-bit weights and 3-bit biases, the 7-bit pixels
    and 6-bit floored products each multiply reads and builds, and its
    widest root, 8 bits."""
    assert run("bound", "--model", workdir / "micro.txt") == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("with --encrypt-weights"))
    assert lines[start + 1].split() == ["layer", "b_w", "b_b", "b_x", "b_p", "max", "b_s"]
    assert lines[start + 2].split() == ["0", "6", "3", "7", "6", "8"]
    assert lines[start + 3] == "machine-readable:"


def test_bound_of_a_model_whose_weights_do_not_encode_exits_4(workdir, capsys):
    """A weight of 100 does not fit w=10, f=5, so no layer can be built or
    certified: one error line, exit 4, and no partial report."""
    net = model_io.load_model(workdir / "micro.txt")
    weights = net.layers[0].weights.copy()
    weights[0, 0] = 100.0
    net = dataclasses.replace(net, layers=[dataclasses.replace(net.layers[0], weights=weights),
                                           *net.layers[1:]])
    model_io.save_model(net, workdir / "big.txt")
    capsys.readouterr()
    assert run("bound", "--model", workdir / "big.txt") == cli.EXIT_SHAPE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: value 100.0") and err.count("\n") == 1


def test_bound_of_a_huge_weight_prints_a_short_error_line(workdir, capsys):
    """A finite weight of 1e160 scales to a 162-digit integer; the error
    names the value and the range, not every digit."""
    net = micro_model()
    weights = net.layers[0].weights.copy()
    weights[0, 0] = 1e160
    model_io.save_model(dataclasses.replace(net, layers=[
        dataclasses.replace(net.layers[0], weights=weights)]), workdir / "e160.txt")
    capsys.readouterr()
    assert run("bound", "--model", workdir / "e160.txt") == cli.EXIT_SHAPE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert "1e+160" in err and "[-512, 511]" in err


def test_gsw_classify_of_a_model_that_does_not_fit_exits_4(workdir, capsys):
    """The tiny model with its weights times 8 needs more than w=12 bits in
    its fc layer for some pixels in [-1, 1].  The gsw backend cannot check
    values as it computes them, so its classify refuses the model, with
    public or encrypted weights, with exit 4 and one error line, and
    writes no scores, as ``bound`` warns; the clear backend classifies an
    image whose values fit."""
    net = tiny_model()
    net = dataclasses.replace(net, layers=[
        dataclasses.replace(layer, weights=layer.weights * 8) for layer in net.layers])
    model_io.save_model(net, workdir / "tiny8.txt")
    model_io.save_csv(np.full((6, 6), 1 / 64), workdir / "faint.csv")
    assert run("keygen", "--preset", "toy", "--seed", "3", "--out", workdir / "t.key") == 0
    for backend in ("gsw", "clear"):
        assert run("encrypt-image", "--model", workdir / "tiny8.txt", "--image",
                   workdir / "faint.csv", "--backend", backend, "--key", workdir / "t.key",
                   "--out", workdir / f"faint-{backend}.bin") == 0
    capsys.readouterr()
    for flags in ((), ("--encrypt-weights",)):
        assert run("classify", "--model", workdir / "tiny8.txt", "--in",
                   workdir / "faint-gsw.bin", "--key", workdir / "t.key",
                   "--out", workdir / "faint-gsw.scores", *flags) == cli.EXIT_SHAPE
        err = capsys.readouterr().err
        assert err.startswith("error: layer 1 needs more than w=12 bits") and err.count("\n") == 1
        assert not (workdir / "faint-gsw.scores").exists()
    assert run("bound", "--model", workdir / "tiny8.txt") == 0
    assert ("layer 1 needs more than w=12 bits: gsw classify "
            "refuses this model") in capsys.readouterr().out.splitlines()
    assert run("classify", "--model", workdir / "tiny8.txt", "--in",
               workdir / "faint-clear.bin", "--out", workdir / "faint-clear.scores") == 0


def test_gsw_classify_of_a_model_whose_max_pool_does_not_fit_exits_4(workdir, capsys):
    """A 1x1 linear conv with weight 10 and a 2x2 max pool at w=10, f=5:
    every output fits, in [-320, 320], but two of them can differ by 640,
    past the 511 a pool comparison can take.  gsw classify refuses it with
    exit 4 and no scores, and ``bound`` names the layer."""
    net = cnn.NetworkSpec(
        [cnn.LayerSpec(cnn.CONVOLUTION, 1, 1, np.full((1, 1, 1, 1), 10.0), np.zeros(1),
                       cnn.LINEAR, kernel_size=1, pool_size=2),
         cnn.LayerSpec(cnn.FULLY_CONNECTED, 1, 1, np.ones((1, 1)), np.zeros(1), cnn.LINEAR)],
        input_height=2, input_width=2, fmt=FixedPointFormat(10, 5))
    model_io.save_model(net, workdir / "pool.txt")
    model_io.save_csv(np.array([[1.0, -1.0], [-1.0, -1.0]]), workdir / "spread.csv")
    assert run("keygen", "--preset", "toy", "--seed", "3", "--out", workdir / "p.key") == 0
    assert run("encrypt-image", "--model", workdir / "pool.txt", "--image",
               workdir / "spread.csv", "--backend", "gsw", "--key", workdir / "p.key",
               "--out", workdir / "spread.bin") == 0
    capsys.readouterr()
    assert run("classify", "--model", workdir / "pool.txt", "--in", workdir / "spread.bin",
               "--key", workdir / "p.key", "--out", workdir / "spread.scores") == cli.EXIT_SHAPE
    err = capsys.readouterr().err
    assert err.startswith("error: layer 0 needs more than w=10 bits") and err.count("\n") == 1
    assert not (workdir / "spread.scores").exists()
    assert run("bound", "--model", workdir / "pool.txt") == 0
    assert ("layer 0 needs more than w=10 bits: gsw classify "
            "refuses this model") in capsys.readouterr().out.splitlines()


def test_pixels_outside_the_unit_interval_exit_4(workdir, capsys):
    """A CSV pixel of 1.5 is refused with exit 4 and a one-line error by
    encrypt-image and verify; pixels of exactly ±1.0 classify."""
    model_io.save_csv(np.array([[0.5, 1.5], [-1.0, 0.0]]), workdir / "over.csv")
    capsys.readouterr()
    for argv in (("encrypt-image", "--image", workdir / "over.csv", "--backend", "clear",
                  "--out", workdir / "over.bin"),
                 ("verify", "--images", workdir / "over.csv")):
        assert run(*argv, "--model", workdir / "micro.txt") == cli.EXIT_SHAPE
        err = capsys.readouterr().err
        assert err.startswith("error: pixel 1.5 outside [-1.0, 1.0]") and err.count("\n") == 1
    model_io.save_csv(np.array([[1.0, -1.0], [-1.0, 1.0]]), workdir / "edge.csv")
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image",
               workdir / "edge.csv", "--backend", "clear", "--out", workdir / "edge.bin") == 0
    assert run("classify", "--model", workdir / "micro.txt", "--in", workdir / "edge.bin",
               "--out", workdir / "edge_scores.bin") == 0
    assert run("verify", "--model", workdir / "micro.txt", "--images", workdir / "edge.csv") == 0


def test_verify_passes_on_micro(workdir, capsys):
    for i in range(3):
        model_io.save_csv(np.random.default_rng(i).uniform(-1, 1, (2, 2)),
                          workdir / f"v{i}.csv")
    code = run("verify", "--model", workdir / "micro.txt", "--images",
               workdir / "v0.csv", workdir / "v1.csv", workdir / "v2.csv")
    out = capsys.readouterr().out
    assert code == 0, out
    assert "classification matches: 3/3" in out


def test_verify_prints_the_empirical_error_report(workdir, capsys):
    paths = []
    for i in (2, 0, 1):
        path = workdir / f"order{i}.csv"
        model_io.save_csv(np.random.default_rng(40 + i).uniform(-1, 1, (2, 2)), path)
        paths.append(path)
    assert run("verify", "--model", workdir / "micro.txt", "--images", *paths) == 0
    lines = capsys.readouterr().out.splitlines()
    report = error_analysis.empirical_error(
        model_io.load_model(workdir / "micro.txt"),
        [model_io.load_image(path) for path in paths])
    assert len(lines) == len(paths) + 4
    for path, line, (got, want), errors in zip(paths, lines, report.classes, report.errors):
        assert line == (f"{path.name}: class fp={got} ref={want} "
                        f"max_err={errors.max():.2e} [ok]")
    assert lines[3] == "classification matches: 3/3"
    assert lines[4] == (f"per-score error: mean={report.empirical_mean:.3e} "
                        f"std={report.empirical_std:.3e} "
                        f"max={report.empirical_max_error:.3e}")
    assert lines[5] == (f"theorem bound: {report.total_bound:.3e} "
                        f"(+ rescaling slack {report.rescaling_slack:.3e})")
    beyond = report.slack_violations
    assert lines[6] == (f"bound violations: {report.bound_violations} "
                        f"({report.bound_violations - beyond} attributed to rescaling "
                        f"slack, {beyond} beyond the slack ceiling)")


def test_verify_fails_cleanly_on_corrupt_model(workdir, capsys):
    (workdir / "corrupt.txt").write_text("gatecnn-model 1\nformat 32 16\ngarbage")
    code = run("verify", "--model", workdir / "corrupt.txt", "--images",
               workdir / "v0.csv")
    assert code == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_verify_non_finite_weight_is_io_error(workdir, capsys):
    lines = (workdir / "micro.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("weights"))
    lines[at] = "weights nan " + " ".join(lines[at].split()[2:])
    (workdir / "nan.txt").write_text("\n".join(lines) + "\n")
    code = run("verify", "--model", workdir / "nan.txt", "--images", workdir / "img.csv")
    assert code == cli.EXIT_IO
    assert "non-finite" in capsys.readouterr().err


def test_verify_malformed_image_is_io_error(workdir, capsys):
    (workdir / "cut.pgm").write_bytes(b"P5\n2 ")
    code = run("verify", "--model", workdir / "micro.txt", "--images", workdir / "cut.pgm")
    assert code == cli.EXIT_IO
    assert "PGM header" in capsys.readouterr().err


def _model_text(fmt, shape, layer, weights, biases):
    """A one-layer model file whose weight and bias counts follow ``layer``."""
    return (f"gatecnn-model 1\nformat {fmt}\ninput {shape}\nlayer {layer}\n"
            f"weights {' '.join(['0.5'] * weights)}\n"
            f"biases {' '.join(['0.0'] * biases)}\nend\n")


@pytest.mark.parametrize("text", [
    _model_text("10 5", "1 2 2", "fc -2 -2 act linear", 4, 0),
    _model_text("10 5", "1 2 2", "fc 4 0 act linear", 0, 0),
    _model_text("0 0", "1 2 2", "fc 4 2 act linear", 8, 2),
    _model_text("10 12", "1 2 2", "fc 4 2 act linear", 8, 2),
    _model_text("10 5", "1 2 2", "conv 1 1 kernel 0 pool 1 act relu", 0, 1),
    _model_text("10 5", "0 0 0", "fc 0 2 act linear", 0, 2),
    _model_text("2000 1500", "1 2 2", "fc 4 2 act linear", 8, 2),
], ids=["fc_negative", "fc_no_outputs", "format_0_0", "format_f_above_w",
        "kernel_0", "input_0_0_0", "format_too_wide"])
@pytest.mark.parametrize("command", ["bound", "verify"])
def test_bad_model_field_is_io_error(workdir, capsys, command, text):
    (workdir / "bad_field.txt").write_text(text)
    extra = ["--images", workdir / "img.csv"] if command == "verify" else []
    assert run(command, "--model", workdir / "bad_field.txt", *extra) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_csv_image_is_io_error(workdir, capsys):
    (workdir / "empty.csv").write_text("")
    code = run("verify", "--model", workdir / "micro.txt", "--images", workdir / "empty.csv")
    assert code == cli.EXIT_IO
    assert "no pixels" in capsys.readouterr().err


# key file: 16-byte header (u32 log_q at 12), then the params section
# (u32 length at 16, u32 lattice_dim at 20, f64 noise_stddev at 24,
# f64 noise_budget at 32), then the secret section (u32 length at 40, nine
# 2-byte entries from 44); the toy preset has noise_stddev 1.0
@pytest.mark.parametrize("offset, packed", [
    (20, struct.pack("<I", 0)),        # lattice_dim
    (12, struct.pack("<I", 30)),       # log_q beyond the exact float64 limit
    (24, struct.pack("<d", -1.0)),     # noise_stddev
    (32, struct.pack("<d", 2.0)),      # noise_budget <= 2 * noise_stddev
    (32, struct.pack("<d", 0.0)),      # noise_budget 0, not a stated budget
    (32, struct.pack("<d", 50.0)),     # too small a budget for auto-refresh
    (31, bytes([0x3F ^ 0x20])),        # noise_stddev 7.5e-155, not the toy preset's
    (60, struct.pack("<H", 2)),        # the secret vector's last entry, not 1
])
def test_bad_key_params_field_is_io_error(workdir, capsys, offset, packed):
    assert run("keygen", "--preset", "toy", "--seed", "2",
               "--out", workdir / "field.key") == 0
    data = bytearray((workdir / "field.key").read_bytes())
    data[offset:offset + len(packed)] = packed
    data[-32:] = hashlib.sha256(data[:-36]).digest()  # the file's own digest
    (workdir / "field.key").write_bytes(bytes(data))
    capsys.readouterr()
    code = run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "gsw",
               "--key", workdir / "field.key", "--out", workdir / "field.bin")
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


def test_custom_key_budget_above_q_over_8_is_io_error(workdir, capsys):
    """A key whose header names the custom preset (id 255 at byte 5) states
    its own budget, but the decoder is correct only while |e| < q/4: a
    budget above q/4 exits 3 with one error line, and q/4 itself (1024 on
    toy) still encrypts.  Each crafted key carries the digest of its own
    bytes (the last 32), as keygen writes it."""
    assert run("keygen", "--preset", "toy", "--seed", "1", "--out", workdir / "custom.key") == 0
    data = bytearray((workdir / "custom.key").read_bytes())
    data[5] = 255
    for budget, want in ((2048.0, cli.EXIT_IO), (1024.0, cli.EXIT_OK)):
        struct.pack_into("<d", data, 32, budget)
        data[-32:] = hashlib.sha256(data[:-36]).digest()
        (workdir / "custom.key").write_bytes(bytes(data))
        capsys.readouterr()
        assert run("encrypt-image", "--model", workdir / "micro.txt",
                   "--image", workdir / "img.csv", "--backend", "gsw",
                   "--key", workdir / "custom.key", "--out", workdir / "custom.bin") == want
        if want:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "q/4 = 1024" in err


def test_toy_key_with_the_q_over_8_budget_is_io_error(workdir, capsys):
    """A toy key whose params block states the budget of the decoder that
    read the q/4 row, q/8 = 512, no longer matches the toy preset (q/4 =
    1024): encrypt-image exits 3 with one error line and writes no file."""
    assert run("keygen", "--preset", "toy", "--seed", "1", "--out", workdir / "old.key") == 0
    data = bytearray((workdir / "old.key").read_bytes())
    assert struct.unpack_from("<d", data, 32) == (1024.0,)
    struct.pack_into("<d", data, 32, 512.0)
    data[-32:] = hashlib.sha256(data[:-36]).digest()
    (workdir / "old.key").write_bytes(bytes(data))
    capsys.readouterr()
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "gsw", "--key", workdir / "old.key",
               "--out", workdir / "old.bin") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not match preset 'toy'" in err
    assert not (workdir / "old.bin").exists()


def test_gsw_image_bit_with_a_noisy_estimate_exits_5(workdir, capsys):
    """encrypt-image writes only fresh bits (estimate 2 on toy).  A bit
    whose stated estimate is 300 still classifies, since each gate puts
    the noisier operand where it grows least and the budget is q/4 =
    1024, but one stated past the budget, 1100, would take the first gate
    it enters past it, so classify refuses it, with public or encrypted
    weights, with exit 5 and one error line that names the estimate, and
    writes no scores."""
    assert run("keygen", "--preset", "toy", "--seed", "1", "--out", workdir / "noisy.key") == 0
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image",
               workdir / "img.csv", "--backend", "gsw", "--key", workdir / "noisy.key",
               "--out", workdir / "noisy.bin") == 0
    data = bytearray((workdir / "noisy.bin").read_bytes())
    # header 16 + params section 24 + meta section 24 + payload length 4:
    # the first bit's f64 noise estimate
    assert struct.unpack_from("<d", data, 68) == (2.0,)
    for estimate, want in ((300.0, cli.EXIT_OK), (1100.0, cli.EXIT_NOISE)):
        struct.pack_into("<d", data, 68, estimate)
        data[-32:] = hashlib.sha256(data[:-36]).digest()  # the file's own digest
        (workdir / "noisy.bin").write_bytes(bytes(data))
        for flags in ((), ("--encrypt-weights",)):
            capsys.readouterr()
            assert run("classify", "--model", workdir / "micro.txt", "--in",
                       workdir / "noisy.bin", "--key", workdir / "noisy.key",
                       "--out", workdir / "noisy.scores", *flags) == want
            if want == cli.EXIT_OK:
                (workdir / "noisy.scores").unlink()
                continue
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert re.search(r"\b1100\b", err)
            assert not (workdir / "noisy.scores").exists()


def test_files_of_the_gcn1_format_are_io_errors(workdir, capsys):
    """A key, image or score file with the older GCN1 magic exits 3 with
    one error line that says how to make new files."""
    key, image, scores = (workdir / f"old.{ext}" for ext in ("key", "img", "sc"))
    run("keygen", "--preset", "toy", "--seed", "1", "--out", key)
    run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
        "--backend", "clear", "--out", image)
    run("classify", "--model", workdir / "micro.txt", "--in", image, "--out", scores)
    for path in (key, image, scores):
        path.write_bytes(b"GCN1" + path.read_bytes()[4:])
    out = workdir / "old_out"
    capsys.readouterr()
    for argv in (["encrypt-image", "--model", workdir / "micro.txt", "--image",
                  workdir / "img.csv", "--backend", "gsw", "--key", key, "--out", out],
                 ["classify", "--model", workdir / "micro.txt", "--in", image, "--out", out],
                 ["decrypt-scores", "--in", scores, "--out", out]):
        assert run(*argv) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "predates the GCN2 format" in err and "keygen --seed" in err


def test_image_file_zero_total_bits_is_io_error(workdir, capsys):
    assert run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "clear",
               "--out", workdir / "zero.bin") == 0
    data = bytearray((workdir / "zero.bin").read_bytes())
    # header 16 + params section 24 + meta length 4; total_bits is meta's 4th u32
    struct.pack_into("<I", data, 16 + 24 + 4 + 12, 0)
    data[-32:] = hashlib.sha256(data[:-36]).digest()  # the file's own digest
    (workdir / "zero.bin").write_bytes(bytes(data))
    capsys.readouterr()
    code = run("classify", "--model", workdir / "micro.txt",
               "--in", workdir / "zero.bin", "--out", workdir / "zero_scores.bin")
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


def test_score_file_of_no_scores_is_io_error(workdir, capsys):
    """A score file with zero scores and a valid digest (which no save
    function writes) exits 3 with one error line, instead of printing an
    argmax of nothing."""
    params = preset_params("toy")
    (workdir / "none.bin").write_bytes(serialize._with_digest(
        serialize._header(serialize.KIND_SCORES, params, "clear")
        + serialize._params_section(params) + serialize._section(struct.pack("<3I", 0, 10, 5))
        + serialize._section(b"")))
    capsys.readouterr()
    assert run("decrypt-scores", "--in", workdir / "none.bin",
               "--out", workdir / "none.txt") == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "holds a 0" in captured.err and "argmax" not in captured.out
    assert not (workdir / "none.txt").exists()


# each command's options, as ``gatecnn <command> --help`` lists them
OPTIONS = {
    "keygen": ["--preset", "--seed", "--out"],
    "encrypt-image": ["--model", "--image", "--backend", "--preset", "--key", "--seed", "--out"],
    "classify": ["--model", "--in", "--key", "--seed", "--encrypt-weights", "--out"],
    "decrypt-scores": ["--in", "--key", "--out"],
    "bound": ["--model"],
    "verify": ["--model", "--images"],
}


def test_each_command_accepts_only_the_options_it_reads():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {name: [s for a in sub._actions for s in a.option_strings
                       if s not in ("-h", "--help")]
                for name, sub in commands.choices.items()}
    assert accepted == OPTIONS
    assert sum(map(len, accepted.values())) == 22


CLASSIFY = ["--model", "m.txt", "--in", "e.bin", "--out", "s.bin"]
UNREAD = [  # (command, a line it parses, an option it does not read)
    ("bound", ["--model", "m.txt"], ["--out", "b.txt"]),
    ("verify", ["--model", "m.txt", "--images", "i.csv"], ["--key", "k.key"]),
    ("decrypt-scores", ["--in", "s.bin"], ["--preset", "toy"]),
    ("classify", CLASSIFY, ["--backend", "gsw"]),
    ("classify", CLASSIFY, ["--workers", "2"]),
    ("classify", CLASSIFY, ["--preset", "demo"]),
]


@pytest.mark.parametrize("command, argv, unread", UNREAD,
                         ids=[f"{command} {unread[0]}" for command, _, unread in UNREAD])
def test_unread_option_is_usage_error(tmp_path, monkeypatch, capsys, command, argv, unread):
    """An option its command does not read exits with the usage code before
    the command runs, so nothing is written; without it the line parses."""
    monkeypatch.chdir(tmp_path)
    cli.build_parser().parse_args([command, *argv])
    with pytest.raises(SystemExit) as exc:
        run(command, *argv, *unread)
    assert exc.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_classify_writes_the_score_header_of_its_image(workdir):
    """A clear image keeps the params of the preset it was encrypted
    under, and so do its scores: classify takes them from the image
    file, not from a default preset."""
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "clear", "--preset", "demo", "--out", workdir / "demo.bin") == 0
    assert run("classify", "--model", workdir / "micro.txt", "--in", workdir / "demo.bin",
               "--out", workdir / "demo.scores") == 0
    for path in ("demo.bin", "demo.scores"):
        assert serialize.read_header(workdir / path)[1:] == (preset_params("demo"), "clear")


def test_encrypt_image_refuses_an_unknown_preset_before_encrypting(workdir, monkeypatch, capsys):
    encrypted = []
    monkeypatch.setattr(cli, "encrypt_image", lambda *a, **k: encrypted.append(a))
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "clear", "--preset", "bogus",
               "--out", workdir / "bogus.bin") == cli.EXIT_USAGE
    assert "unknown preset 'bogus'" in capsys.readouterr().err
    assert not encrypted and not (workdir / "bogus.bin").exists()


def test_gsw_encrypt_image_refuses_a_preset_other_than_its_keys(workdir, capsys):
    """A gsw image is written under its key's params, so ``--preset demo``
    with a toy key is a usage error that writes no file; the key's own
    preset, or none, writes a toy image."""
    assert run("keygen", "--seed", "1", "--out", workdir / "default.key") == 0
    gsw = ["encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
           "--backend", "gsw", "--key", workdir / "default.key"]
    capsys.readouterr()
    assert run(*gsw, "--preset", "demo", "--out", workdir / "demo-gsw.bin") == cli.EXIT_USAGE
    assert "does not match the key's preset 'toy'" in capsys.readouterr().err
    assert not (workdir / "demo-gsw.bin").exists()
    for preset in ([], ["--preset", "toy"]):
        assert run(*gsw, *preset, "--out", workdir / "toy-gsw.bin") == 0
        assert serialize.read_header(workdir / "toy-gsw.bin")[1:] == (preset_params("toy"), "gsw")


def test_negative_seed_is_usage_error(workdir, capsys):
    """A negative ``--seed`` exits 2 with one error line and writes no
    file: to keygen, to encrypt-image on either backend, and to classify
    of a clear image, whose backend draws no randomness."""
    assert run("keygen", "--seed", "-1", "--out", workdir / "neg.key") == cli.EXIT_USAGE
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (workdir / "neg.key").exists()
    assert run("keygen", "--seed", "1", "--out", workdir / "seed.key") == 0
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "gsw", "--key", workdir / "seed.key", "--seed", "-3",
               "--out", workdir / "neg.bin") == cli.EXIT_USAGE
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (workdir / "neg.bin").exists()
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "clear", "--seed", "-1",
               "--out", workdir / "neg.bin") == cli.EXIT_USAGE
    assert not (workdir / "neg.bin").exists()
    assert run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
               "--backend", "clear", "--out", workdir / "clear.bin") == 0
    capsys.readouterr()
    assert run("classify", "--model", workdir / "micro.txt", "--in", workdir / "clear.bin",
               "--seed", "-5", "--out", workdir / "neg.scores") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be a non-negative integer" in err
    assert not (workdir / "neg.scores").exists()


def test_readme_command_lines_parse():
    """Every ``$ gatecnn ...`` line of README.md parses with today's CLI, so a
    removed or renamed flag cannot stay documented."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line.split("$ gatecnn ", 1)[1]
                for line in text.replace("\\\n", " ").splitlines()
                if line.lstrip().startswith("$ gatecnn ")]
    assert commands
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True))
        except SystemExit:
            pytest.fail(f"README command does not parse: gatecnn {command}")


def _run_model(command: str, model, workdir) -> int:
    """``bound``, ``verify`` (of img.csv) or ``classify`` (of the clear
    enc.bin) with ``model``."""
    if command == "bound":
        return run(command, "--model", model)
    if command == "verify":
        return run(command, "--model", model, "--images", workdir / "img.csv")
    return run(command, "--model", model, "--in", workdir / "enc.bin",
               "--out", workdir / "never.bin")


@pytest.mark.parametrize("command", ["bound", "classify"])
def test_model_file_that_is_not_utf8_is_io_error(workdir, capsys, command):
    (workdir / "binary.txt").write_bytes(b"gatecnn-model 1\nformat 10 5\xff\n")
    assert _run_model(command, workdir / "binary.txt", workdir) == cli.EXIT_IO
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "verify", "classify"])
def test_weight_whose_scaled_value_is_not_finite_exits_4(workdir, capsys, command):
    net = micro_model()
    weights = net.layers[0].weights.copy()
    weights[0, 0] = 1e308
    model_io.save_model(dataclasses.replace(net, layers=[
        dataclasses.replace(net.layers[0], weights=weights)]), workdir / "huge.txt")
    run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
        "--backend", "clear", "--out", workdir / "enc.bin")
    capsys.readouterr()
    assert _run_model(command, workdir / "huge.txt", workdir) == cli.EXIT_SHAPE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a finite number" in err


_FUZZ_TOKENS = [b"0", b"-1", b"99999999", b"nan", b"inf", b"1e308", b"x", b"64", b"65",
                b"conv", b"fc", b"relu", b"end"]


def _mutants(data: bytes, count: int, seed: int, tokens: bool):
    """``count`` seeded mutants of ``data``: a truncation at a random
    offset, 1-4 flipped bytes (mostly in the first 64), or, with
    ``tokens``, one whitespace-separated token replaced by a _FUZZ_TOKENS
    entry."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = rng.integers(3 if tokens else 2)
        if kind == 0:
            yield data[:rng.integers(len(data))]
        elif kind == 1:
            out = bytearray(data)
            for _ in range(rng.integers(1, 5)):
                at = rng.integers(min(64, len(out)) if rng.random() < 0.8 else len(out))
                out[at] ^= int(rng.integers(1, 256))
            yield bytes(out)
        else:
            parts = re.split(rb"(\s+)", data)
            at = 2 * rng.integers((len(parts) + 1) // 2)
            parts[at] = _FUZZ_TOKENS[rng.integers(len(_FUZZ_TOKENS))]
            yield b"".join(parts)


def test_mutated_input_files_exit_with_a_documented_code(workdir, capsys):
    """Malformed model, key, image and score files, clear and gsw: every
    seeded mutant returns 0 or a documented exit code, and ``main`` raises
    nothing.  Key, image and score files carry a digest, so every altered
    one exits 3."""
    run("keygen", "--preset", "toy", "--seed", "1", "--out", workdir / "fuzz.key")
    run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
        "--backend", "clear", "--out", workdir / "fuzz_img.bin")
    run("classify", "--model", workdir / "micro.txt", "--in", workdir / "fuzz_img.bin",
        "--out", workdir / "fuzz_sc.bin")
    run("encrypt-image", "--model", workdir / "micro.txt", "--image", workdir / "img.csv",
        "--backend", "gsw", "--key", workdir / "fuzz.key", "--out", workdir / "fuzz_gsw_img.bin")
    run("classify", "--model", workdir / "micro.txt", "--in", workdir / "fuzz_gsw_img.bin",
        "--key", workdir / "fuzz.key", "--out", workdir / "fuzz_gsw_sc.bin")
    mutant, out = workdir / "mutant", workdir / "mutant_out"
    commands = {
        "micro.txt": [["bound", "--model", mutant],
                      ["classify", "--model", mutant, "--in", workdir / "fuzz_img.bin",
                       "--out", out]],
        "fuzz.key": [["encrypt-image", "--model", workdir / "micro.txt", "--image",
                      workdir / "img.csv", "--backend", "gsw", "--key", mutant, "--out", out]],
        "fuzz_img.bin": [["classify", "--model", workdir / "micro.txt", "--in", mutant,
                          "--out", out]],
        "fuzz_sc.bin": [["decrypt-scores", "--in", mutant, "--out", out]],
        "fuzz_gsw_img.bin": [["classify", "--model", workdir / "micro.txt", "--in", mutant,
                              "--key", workdir / "fuzz.key", "--out", out]],
        "fuzz_gsw_sc.bin": [["decrypt-scores", "--in", mutant, "--key", workdir / "fuzz.key",
                             "--out", out]],
    }
    counts = {"micro.txt": 150, "fuzz.key": 30, "fuzz_img.bin": 60, "fuzz_sc.bin": 60,
              "fuzz_gsw_img.bin": 30, "fuzz_gsw_sc.bin": 30}
    documented = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_SHAPE, cli.EXIT_NOISE,
                  cli.EXIT_VERIFY}
    for seed, (name, argvs) in enumerate(commands.items()):
        data = (workdir / name).read_bytes()
        mutants = list(_mutants(data, counts[name], seed, name == "micro.txt"))
        if name != "micro.txt":  # and one flipped bit at eight places past the header
            mutants += [data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
                        for at in range(64, len(data), -(-(len(data) - 64) // 8))]
        for i, bad in enumerate(mutants):
            mutant.write_bytes(bad)
            for argv in argvs:
                try:
                    code = run(*argv)
                except Exception as exc:  # any escape from main is the failure
                    pytest.fail(f"{name} mutant {i} {bad[:80]!r}: {argv[0]} raised {exc!r}")
                assert code in documented, (name, i, argv[0], code)
                if name != "micro.txt":  # key, image and score files carry a digest
                    assert code == cli.EXIT_IO or bad == data, (name, i, code)
    capsys.readouterr()


def test_missing_file_is_io_error(workdir):
    assert run("bound", "--model", workdir / "nope.txt") == cli.EXIT_IO


def test_exit_code_for_noise_exhaustion(monkeypatch, capsys):
    def explode(config):
        raise NoiseExhaustionError("budget exceeded")

    monkeypatch.setattr(cli, "cmd_bound", explode)
    # build_parser binds the patched function through the module lookup
    parser = cli.build_parser()
    args = parser.parse_args(["bound", "--model", "whatever"])
    args.func = explode
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli.main(["bound", "--model", "whatever"]) == cli.EXIT_NOISE
    assert "budget exceeded" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_SHAPE,
             cli.EXIT_NOISE, cli.EXIT_VERIFY}
    assert len(codes) == 6


def test_demo_assets_roundtrip(tmp_path):
    paths = write_demo_assets(tmp_path / "assets", image_count=2)
    net = model_io.load_model(paths["preset_model"])
    assert net.num_classes == 10
    img = model_io.load_image(paths["images"][0])
    assert img.shape == (1, 28, 28)
