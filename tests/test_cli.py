import numpy as np
import pytest

from gatecnn import cli, model_io, serialize
from gatecnn.demo import micro_model, write_demo_assets
from gatecnn.errors import NoiseExhaustionError


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
    assert run("keygen", "--backend", "clear", "--out", workdir / "x.key") == cli.EXIT_USAGE


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


def test_gsw_pipeline_and_worker_determinism(workdir):
    run("keygen", "--preset", "toy", "--seed", "3", "--out", workdir / "g.key")
    assert run("encrypt-image", "--model", workdir / "micro.txt",
               "--image", workdir / "img.csv", "--backend", "gsw",
               "--key", workdir / "g.key", "--seed", "4",
               "--out", workdir / "genc.bin") == 0
    for workers, out in (("1", "s1.bin"), ("4", "s4.bin")):
        assert run("classify", "--model", workdir / "micro.txt",
                   "--in", workdir / "genc.bin", "--key", workdir / "g.key",
                   "--seed", "5", "--workers", workers,
                   "--out", workdir / out) == 0
    assert (workdir / "s1.bin").read_bytes() == (workdir / "s4.bin").read_bytes()
    assert run("decrypt-scores", "--in", workdir / "s1.bin",
               "--key", workdir / "g.key", "--out", workdir / "d1.txt") == 0
    assert run("decrypt-scores", "--in", workdir / "s4.bin",
               "--key", workdir / "g.key", "--out", workdir / "d4.txt") == 0
    assert (workdir / "d1.txt").read_bytes() == (workdir / "d4.txt").read_bytes()


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


def test_verify_passes_on_micro(workdir, capsys):
    for i in range(3):
        model_io.save_csv(np.random.default_rng(i).uniform(-1, 1, (2, 2)),
                          workdir / f"v{i}.csv")
    code = run("verify", "--model", workdir / "micro.txt", "--images",
               workdir / "v0.csv", workdir / "v1.csv", workdir / "v2.csv")
    out = capsys.readouterr().out
    assert code == 0, out
    assert "classification matches: 3/3" in out


def test_verify_fails_cleanly_on_corrupt_model(workdir, capsys):
    (workdir / "corrupt.txt").write_text("gatecnn-model 1\nformat 32 16\ngarbage")
    code = run("verify", "--model", workdir / "corrupt.txt", "--images",
               workdir / "v0.csv")
    assert code == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_verify_malformed_image_is_io_error(workdir, capsys):
    (workdir / "cut.pgm").write_bytes(b"P5\n2 ")
    code = run("verify", "--model", workdir / "micro.txt", "--images", workdir / "cut.pgm")
    assert code == cli.EXIT_IO
    assert "PGM header" in capsys.readouterr().err


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
