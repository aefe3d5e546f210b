import hashlib
import re
import struct

import numpy as np
import pytest

from gatecnn import cnn, serialize
from gatecnn import fhe_core as fc
from gatecnn import fixedpoint as fp
from gatecnn import gates as g
from gatecnn import model_io
from gatecnn.demo import micro_model, synthetic_images, tiny_model
from gatecnn.errors import FormatMismatchError, ModelFormatError, ParameterError
from gatecnn.fhe_core import ClearBackend, GswBackend, keygen, preset_params


def test_secret_key_roundtrip(tmp_path, toy_params, toy_key):
    path = tmp_path / "k.key"
    serialize.save_secret_key(toy_key, path)
    loaded = serialize.load_secret_key(path)
    assert np.array_equal(loaded.secret_vector, toy_key.secret_vector)
    assert loaded.params == toy_params


def test_key_files_byte_identical_for_same_seed(tmp_path, toy_params):
    p1, p2 = tmp_path / "a.key", tmp_path / "b.key"
    serialize.save_secret_key(keygen(toy_params, 5), p1)
    serialize.save_secret_key(keygen(toy_params, 5), p2)
    assert p1.read_bytes() == p2.read_bytes()
    serialize.save_secret_key(keygen(toy_params, 6), p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_altered_key_file_is_refused(tmp_path, toy_key):
    """Each bit of a key file's secret vector or digest, flipped, is
    refused as an altered file; a key file without the digest section is
    refused with a hint to regenerate it."""
    path = tmp_path / "k.key"
    serialize.save_secret_key(toy_key, path)
    data = path.read_bytes()
    vector = _payload_offset(data, "key") + 4
    for at in (vector, vector + len(data) // 3, len(data) - 1):
        for bit in range(8):
            bad = bytearray(data)
            bad[at] ^= 1 << bit
            path.write_bytes(bytes(bad))
            with pytest.raises(ModelFormatError, match="checksum mismatch"):
                serialize.load_secret_key(path)
    path.write_bytes(data[:-36])
    with pytest.raises(ModelFormatError, match="no checksum section: regenerate"):
        serialize.load_secret_key(path)


def test_header_magic_and_kind_checks(tmp_path, toy_key):
    path = tmp_path / "k.key"
    serialize.save_secret_key(toy_key, path)
    kind, params, tag = serialize.read_header(path)
    assert kind == serialize.KIND_KEY
    assert tag == "gsw"
    assert params == toy_key.params

    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(ModelFormatError):
        serialize.load_secret_key(path)


def test_enc_image_roundtrip_clear(tmp_path):
    fmt = fp.FixedPointFormat(12, 6)
    backend = ClearBackend()
    pixels = np.random.default_rng(1).uniform(-1, 1, (1, 4, 4))
    img = cnn.encrypt_image(pixels, fmt, backend)
    path = tmp_path / "img.bin"
    serialize.save_enc_image(img, fmt, backend, path, params=preset_params("toy"))
    loaded, fmt2 = serialize.load_enc_image(path, ClearBackend())
    assert fmt2 == fmt
    for r in range(4):
        for c in range(4):
            got = fp.decode(loaded.channels[0][r][c])
            assert got == fp.decode(img.channels[0][r][c])
            # encrypt-then-decrypt recovers the pixel to within 1/scale
            assert 0 <= pixels[0, r, c] - got < 1 / fmt.scale


def test_enc_image_roundtrip_gsw_bit_exact(tmp_path, toy_params, toy_key):
    fmt = fp.FixedPointFormat(6, 3)
    backend = GswBackend(toy_params, key=toy_key, seed=9)
    pixels = np.array([[[0.5, -0.25], [0.125, 0.875]]])
    img = cnn.encrypt_image(pixels, fmt, backend)
    path = tmp_path / "img.bin"
    serialize.save_enc_image(img, fmt, backend, path)
    loaded, _ = serialize.load_enc_image(path, GswBackend(toy_params, key=toy_key))
    for r in range(2):
        for c in range(2):
            a, b = img.channels[0][r][c], loaded.channels[0][r][c]
            for ba, bb in zip(a.bits.bits, b.bits.bits):
                assert np.array_equal(ba.ciphertext.matrix, bb.ciphertext.matrix)
                assert ba.ciphertext.noise_estimate == bb.ciphertext.noise_estimate
            assert fp.decode(b) == fp.decode(a)


def test_backend_mismatch_on_load(tmp_path, toy_params, toy_key):
    fmt = fp.FixedPointFormat(6, 3)
    backend = ClearBackend()
    img = cnn.encrypt_image(np.zeros((1, 2, 2)), fmt, backend)
    path = tmp_path / "img.bin"
    serialize.save_enc_image(img, fmt, backend, path, params=toy_params)
    with pytest.raises(ParameterError):
        serialize.load_enc_image(path, GswBackend(toy_params, key=toy_key))


def test_scores_roundtrip(tmp_path, toy_params):
    fmt = fp.FixedPointFormat(10, 5)
    backend = ClearBackend()
    scores = cnn.EncScores([fp.encode(v, fmt, backend) for v in (0.5, -0.25, 0.0)])
    path = tmp_path / "s.bin"
    serialize.save_scores(scores, fmt, backend, path, params=toy_params)
    loaded, fmt2 = serialize.load_scores(path, ClearBackend())
    assert fmt2 == fmt
    assert [fp.decode(s) for s in loaded.scores] == [0.5, -0.25, 0.0]
    with pytest.raises(ModelFormatError):
        serialize.load_enc_image(path, ClearBackend())  # wrong kind


def test_image_record_count(tmp_path):
    """A w-bit image of p pixels carries exactly p*w ciphertext records."""
    fmt = fp.FixedPointFormat(32, 16)
    backend = ClearBackend()
    img = cnn.encrypt_image(np.zeros((1, 3, 5)), fmt, backend)
    path = tmp_path / "img.bin"
    serialize.save_enc_image(img, fmt, backend, path, params=preset_params("toy"))
    with open(path, "rb") as fh:
        data = fh.read()
    rd = serialize._Reader(data)
    serialize._parse_header(rd)
    meta = serialize._Reader(rd.section())
    channels, height, width, total_bits, frac_bits = meta.unpack("<IIIII")
    payload = rd.section()
    assert channels * height * width * total_bits == 3 * 5 * 32
    assert len(payload) == (3 * 5 * 32 + 7) // 8  # clear packing: 1 bit each


def test_model_roundtrip(tmp_path):
    for net in (tiny_model(), micro_model()):
        path = tmp_path / "m.txt"
        model_io.save_model(net, path)
        loaded = model_io.load_model(path)
        assert loaded.fmt == net.fmt
        assert len(loaded.layers) == len(net.layers)
        for a, b in zip(loaded.layers, net.layers):
            assert a.kind == b.kind
            assert np.array_equal(a.weights, b.weights)  # repr() round trip
            assert np.array_equal(a.biases, b.biases)
            assert a.activation == b.activation


def test_model_save_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    model_io.save_model(tiny_model(), p1)
    model_io.save_model(tiny_model(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-model 1\n")
    with pytest.raises(ModelFormatError):
        model_io.load_model(path)
    path.write_text("gatecnn-model 1\nformat 32 16\ninput 1 2 2\n"
                    "layer fc 4 2 act relu\nweights 1 2 3\n")
    with pytest.raises(ModelFormatError):
        model_io.load_model(path)


def test_pgm_roundtrip(tmp_path):
    img = synthetic_images(1, 9, 7, seed=3)[0]
    path = tmp_path / "x.pgm"
    model_io.save_pgm(img, path)
    loaded = model_io.load_image(path)
    assert loaded.shape == (1, 9, 7)
    assert np.allclose(loaded, img)  # images are snapped to the 8-bit grid


def test_pgm_ascii_variant(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
    loaded = model_io.load_image(path)
    assert loaded.shape == (1, 2, 3)
    assert loaded[0, 0, 0] == -1.0
    assert loaded[0, 0, 2] == 1.0


def test_csv_roundtrip(tmp_path):
    arr = np.random.default_rng(2).uniform(-1, 1, (4, 6))
    path = tmp_path / "x.csv"
    model_io.save_csv(arr, path)
    loaded = model_io.load_image(path)
    assert loaded.shape == (1, 4, 6)
    assert np.array_equal(loaded[0], arr)


@pytest.mark.parametrize("name, content", [
    ("cut_header.pgm", b"P5\n3 "),
    ("short_raster.pgm", b"P5\n3 2\n255\n\x00\x01"),
    ("header_only.pgm", b"P5\n3 2\n255\n"),
    ("bad_dims.pgm", b"P5\n-1 -1\n255\n\x00"),
    ("bad_field.pgm", b"P5\n3 x\n255\n\x00"),
    ("bad_p2_pixel.pgm", b"P2\n2 1\n255\n0 300\n"),
    ("text.csv", b"0.5,abc\n0.1,0.2\n"),
    ("nan.csv", b"0.5,nan\n0.1,0.2\n"),
    ("inf.csv", b"0.5,0.1\n-inf,0.2\n"),
])
def test_malformed_image_is_format_error(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ModelFormatError):
        model_io.load_image(path)


def test_three_byte_entry_serialization(tmp_path):
    """log_q in 17..24 packs entries into 3 bytes each."""
    params = preset_params("toy").__class__(lattice_dim=2, log_q=18, noise_stddev=1.0)
    sk = keygen(params, 4)
    path = tmp_path / "wide.key"
    serialize.save_secret_key(sk, path)
    loaded = serialize.load_secret_key(path)
    assert np.array_equal(loaded.secret_vector, sk.secret_vector)
    backend = GswBackend(params, key=sk, seed=6)
    fmt = fp.FixedPointFormat(4, 2)
    img = cnn.encrypt_image(np.array([[[0.75]]]), fmt, backend)
    ipath = tmp_path / "wide.bin"
    serialize.save_enc_image(img, fmt, backend, ipath)
    loaded_img, _ = serialize.load_enc_image(ipath, GswBackend(params, key=sk))
    assert fp.decode(loaded_img.channels[0][0][0]) == 0.75


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "f.bin"
    serialize.atomic_write_bytes(path, b"one")
    serialize.atomic_write_bytes(path, b"two")
    assert path.read_bytes() == b"two"
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


@pytest.mark.parametrize("field", [float("nan"), float("inf"), -1.0])
def test_ciphertext_with_bad_noise_field_rejected(tmp_path, toy_params, toy_key, field):
    """A tracked noise estimate that is not a finite non-negative number
    would slip past the decryption budget check, so loading refuses it."""
    fmt = fp.FixedPointFormat(4, 2)
    backend = GswBackend(toy_params, key=toy_key, seed=11)
    scores = cnn.EncScores([fp.encode(0.5, fmt, backend)])
    path = tmp_path / "s.bin"
    serialize.save_scores(scores, fmt, backend, path)
    data = bytearray(path.read_bytes())
    first = struct.pack("<d", scores.scores[0].bits.bits[0].ciphertext.noise_estimate)
    offset = data.index(first)
    data[offset:offset + 8] = struct.pack("<d", field)
    path.write_bytes(_resigned(data))
    with pytest.raises(ModelFormatError):
        serialize.load_scores(path, GswBackend(toy_params, key=toy_key))


def test_params_with_nan_noise_field_rejected(tmp_path, toy_key):
    path = tmp_path / "k.key"
    serialize.save_secret_key(toy_key, path)
    data = bytearray(path.read_bytes())
    # header (16) + section length (4) + u32 lattice_dim: then noise_stddev
    data[24:32] = struct.pack("<d", float("nan"))
    path.write_bytes(_resigned(data))
    with pytest.raises(ModelFormatError):
        serialize.load_secret_key(path)


def _gsw_files(tmp_path, params, key):
    """A gsw image file and a gsw score file of freshly encrypted bits."""
    fmt = fp.FixedPointFormat(4, 2)
    backend = GswBackend(params, key=key, seed=12)
    img = cnn.encrypt_image(np.array([[[0.75, -0.5]]]), fmt, backend)
    image_path, scores_path = tmp_path / "img.bin", tmp_path / "s.bin"
    serialize.save_enc_image(img, fmt, backend, image_path)
    serialize.save_scores(cnn.EncScores([img.channels[0][0][1]]), fmt, backend, scores_path)
    return image_path, scores_path


def _resigned(data) -> bytes:
    """A file's bytes before its digest section, with a digest section of
    their own, so that a field altered in them reaches its own check."""
    return serialize._with_digest(bytes(data[:-36]))


def _payload_offset(data: bytes, kind: str) -> int:
    """Position of the payload section's u32 length prefix."""
    rd = serialize._Reader(data)
    serialize._parse_header(rd)
    if kind != "key":
        rd.section()  # metadata
    return rd.pos


def test_gsw_image_resave_is_byte_identical(tmp_path, toy_params, toy_key):
    image_path, _ = _gsw_files(tmp_path, toy_params, toy_key)
    backend = GswBackend(toy_params, key=toy_key)
    loaded, fmt = serialize.load_enc_image(image_path, backend)
    again = tmp_path / "again.bin"
    serialize.save_enc_image(loaded, fmt, backend, again)
    assert again.read_bytes() == image_path.read_bytes()


@pytest.mark.parametrize("entry", ["q", "u16_max"])
def test_gsw_matrix_entry_must_be_below_q(tmp_path, toy_params, toy_key, entry):
    """Entries of M are residues mod q; a two-byte field can hold larger
    values, and the loader refuses them."""
    image_path, _ = _gsw_files(tmp_path, toy_params, toy_key)
    data = bytearray(image_path.read_bytes())
    count = 2 * 4  # two pixels of w=4 bits
    first_entry = _payload_offset(data, "image") + 4 + 24 * count  # length, estimates, messages
    value = toy_params.modulus if entry == "q" else 2 ** 16 - 1
    data[first_entry:first_entry + 2] = struct.pack("<H", value)
    image_path.write_bytes(_resigned(data))
    with pytest.raises(ModelFormatError,
                       match=f"entry {value} is not below q = {toy_params.modulus}"):
        serialize.load_enc_image(image_path, GswBackend(toy_params, key=toy_key))


def test_gsw_message_intervals_round_trip_and_an_empty_one_is_refused(tmp_path, toy_params,
                                                                     toy_key):
    """Each gsw bit's message interval is stored next to its noise
    estimate: score bits that are XORs of two fresh bits, whose messages
    lie in [0, 2], load with that interval, so true noise stays measurable
    after the file round trip; a stored interval with lo > hi is refused."""
    fmt = fp.FixedPointFormat(4, 2)
    backend = GswBackend(toy_params, key=toy_key, seed=13)
    x, y = (fp.encode(v, fmt, backend) for v in (0.75, -0.5))
    value = fp.FixedPointCipher(g.BitVector(fc.xor_(a, b) for a, b in zip(x.bits.bits,
                                                                        y.bits.bits)), fmt)
    path = tmp_path / "s.bin"
    serialize.save_scores(cnn.EncScores([value]), fmt, backend, path)
    (loaded,) = serialize.load_scores(path, backend)[0].scores
    bits = loaded.bits.bits
    assert [bit.ciphertext.message for bit in bits] == [(0, 2)] * 4
    assert all(fc.true_noise(toy_key, bit.ciphertext) <= bit.ciphertext.noise_estimate
               for bit in bits)
    data = bytearray(path.read_bytes())
    messages = _payload_offset(data, "scores") + 4 + 8 * 4  # length, estimates
    struct.pack_into("<qq", data, messages, 3, 2)
    path.write_bytes(_resigned(data))
    with pytest.raises(ModelFormatError, match=r"message interval \[3, 2\] is empty"):
        serialize.load_scores(path, backend)


@pytest.mark.parametrize("kind", ["key", "image", "scores", "clear_image"])
@pytest.mark.parametrize("defect", ["trailing_byte", "long_payload", "short_payload"])
def test_section_lengths_are_exact(tmp_path, toy_params, toy_key, kind, defect):
    image_path, scores_path = _gsw_files(tmp_path, toy_params, toy_key)
    key_path, clear_path = tmp_path / "k.key", tmp_path / "clear.bin"
    serialize.save_secret_key(toy_key, key_path)
    clear = ClearBackend()
    img = cnn.encrypt_image(np.zeros((1, 3, 3)), fp.FixedPointFormat(6, 3), clear)
    serialize.save_enc_image(img, fp.FixedPointFormat(6, 3), clear, clear_path,
                             params=toy_params)
    gsw = GswBackend(toy_params, key=toy_key)
    path, load = {
        "key": (key_path, serialize.load_secret_key),
        "image": (image_path, lambda p: serialize.load_enc_image(p, gsw)),
        "scores": (scores_path, lambda p: serialize.load_scores(p, gsw)),
        "clear_image": (clear_path, lambda p: serialize.load_enc_image(p, ClearBackend())),
    }[kind]
    load(path)  # intact
    data = bytearray(path.read_bytes()[:-36])  # before the digest section
    if defect == "trailing_byte":
        data += b"\x00"
    else:
        at = _payload_offset(data, kind.replace("clear_", ""))
        (length,) = struct.unpack_from("<I", data, at)
        if defect == "long_payload":
            length += 1
            data += b"\x00"
        else:
            length -= 1
            del data[-1]
        struct.pack_into("<I", data, at, length)
    path.write_bytes(serialize._with_digest(bytes(data)))
    with pytest.raises(ModelFormatError, match="trailing" if defect == "trailing_byte"
                       else "expected"):
        load(path)


def _wire_files(tmp_path, params, key):
    """A clear image file and a clear score file from fixed values, and a
    gsw image file from a fixed key and seed."""
    fmt = fp.FixedPointFormat(6, 3)
    clear = ClearBackend()
    pixels = np.array([[[0.5, -0.25, 0.875], [-1.0, 0.125, 0.0]],
                       [[0.75, -0.625, 0.25], [0.375, -0.5, 1.0 - 1 / 8]]])
    paths = {name: tmp_path / f"{name}.bin" for name in ("image", "scores", "gsw")}
    serialize.save_enc_image(cnn.encrypt_image(pixels, fmt, clear), fmt, clear,
                             paths["image"], params=params)
    scores = cnn.EncScores([fp.encode(v, fmt, clear) for v in (0.5, -0.25, 3.875, -4.0)])
    serialize.save_scores(scores, fmt, clear, paths["scores"], params=params)
    gsw = GswBackend(params, key=key, seed=3)
    serialize.save_enc_image(cnn.encrypt_image(pixels[:1, :1, :2], fmt, gsw), fmt, gsw,
                             paths["gsw"])
    return paths


def test_image_and_score_wire_format_is_pinned(tmp_path, toy_params, toy_key):
    """The exact bytes of each record kind, for fixed inputs: the bytes
    before the digest section are those of files without one, and the
    section holds their SHA-256."""
    paths = _wire_files(tmp_path, toy_params, toy_key)
    data = {name: path.read_bytes() for name, path in paths.items()}
    assert {name: hashlib.sha256(b[:-36]).hexdigest() for name, b in data.items()} == {
        "image": "13759b070cf061e5bafcd94b582b1f7525872646ade3582b68b9c0f0c9254d93",
        "scores": "722dfba2cf0e4688b889111ca1037edc8f8a4800f5c7bb5955d765ed6050204e",
        "gsw": "12c68b61411aa6e6bf1a7737e09af5af07ab3e1bd8e379e33e6a6f82a5315a42",
    }
    assert all(b[-36:] == struct.pack("<I", 32) + hashlib.sha256(b[:-36]).digest()
               for b in data.values())
    assert {name: hashlib.sha256(b).hexdigest() for name, b in data.items()} == {
        "image": "080256bafa2ea7316a30018b8e4e2cda9900c8f22352e28226ee487c39352ecc",
        "scores": "5f5a4ff7f40d27bb14d550420ad25a04d10b13785f155427e7442e5d44c014f7",
        "gsw": "c831e3275cc79d1ea49e57a3280c844eae7b8fd3a5de8602680016669b61f174",
    }


@pytest.mark.parametrize("record", ["image", "scores", "gsw"])
def test_altered_image_and_score_files_are_refused(tmp_path, toy_params, toy_key, record):
    """As for keys: a flipped bit anywhere in an image or score file, a
    matrix entry still below q included, is refused as an altered file
    before any field is read, and a file without the digest section
    (as written before files carried one) is refused with a hint."""
    path = _wire_files(tmp_path, toy_params, toy_key)[record]
    data = path.read_bytes()
    backend = GswBackend(toy_params, key=toy_key) if record == "gsw" else ClearBackend()
    load = serialize.load_scores if record == "scores" else serialize.load_enc_image
    load(path, backend)  # intact
    for at in (5, 6, _payload_offset(data, "image") + 4, len(data) // 2, len(data) - 1):
        bad = bytearray(data)
        bad[at] ^= 1
        path.write_bytes(bytes(bad))
        with pytest.raises(ModelFormatError, match="checksum mismatch: the file was altered"):
            load(path, backend)
    path.write_bytes(data[:-36])
    with pytest.raises(ModelFormatError, match="no checksum section: (encrypt|classify)"):
        load(path, backend)


def test_image_and_score_record_errors(tmp_path, toy_params, toy_key):
    paths = _wire_files(tmp_path, toy_params, toy_key)
    clear = ClearBackend()
    with pytest.raises(ModelFormatError, match="^file is not an encrypted image$"):
        serialize.load_enc_image(paths["scores"], clear)
    with pytest.raises(ModelFormatError, match="^file is not a score file$"):
        serialize.load_scores(paths["image"], clear)
    with pytest.raises(ParameterError, match="gsw backend, got clear"):
        serialize.load_enc_image(paths["gsw"], clear)
    fmt = fp.FixedPointFormat(6, 3)
    img = cnn.encrypt_image(np.zeros((1, 1, 1)), fmt, clear)
    with pytest.raises(ParameterError, match="^clear image files still need preset params"):
        serialize.save_enc_image(img, fmt, clear, tmp_path / "x.bin")
    with pytest.raises(ParameterError, match="^clear score files still need preset params"):
        serialize.save_scores(cnn.EncScores([img.channels[0][0][0]]), fmt, clear,
                              tmp_path / "x.bin")
    loaded, fmt2 = serialize.load_enc_image(paths["image"], clear)
    assert (len(loaded.channels), loaded.height, loaded.width, fmt2) == (2, 2, 3, fmt)
    assert [fp.decode(v) for row in loaded.channels[1] for v in row] == \
        [0.75, -0.625, 0.25, 0.375, -0.5, 0.875]
    scores, _ = serialize.load_scores(paths["scores"], clear)
    assert [fp.decode(v) for v in scores.scores] == [0.5, -0.25, 3.875, -4.0]


def _record_bytes(kind, params, shape, fmt, payload: bytes) -> bytes:
    """A clear image or score file of ``shape`` and ``payload`` with a valid
    digest, built field by field, as no save function writes it."""
    meta = struct.pack(f"<{len(shape) + 2}I", *shape, fmt.total_bits, fmt.frac_bits)
    return serialize._with_digest(serialize._header(kind, params, "clear")
                                  + serialize._params_section(params)
                                  + serialize._section(meta) + serialize._section(payload))


def test_records_whose_shape_holds_a_zero_are_refused(tmp_path, toy_params):
    """An image or score file of no values is refused at load, though its
    digest is valid: no classification can come of it.  Saving one is
    refused before a byte is written."""
    fmt = fp.FixedPointFormat(6, 3)
    clear = ClearBackend()
    path = tmp_path / "record.bin"
    for shape in ((0, 2, 2), (1, 0, 3), (2, 3, 0)):
        channels, height, width = shape
        path.write_bytes(_record_bytes(serialize.KIND_IMAGE, toy_params, shape, fmt, b""))
        with pytest.raises(ModelFormatError,
                           match=rf"^image file shape {re.escape(str(shape))} holds a 0"):
            serialize.load_enc_image(path, clear)
        img = cnn.EncImage([[[] for _ in range(height)] for _ in range(channels)], height, width)
        with pytest.raises(ParameterError,
                           match=rf"^image shape {re.escape(str(shape))} holds a 0"):
            serialize.save_enc_image(img, fmt, clear, tmp_path / "img.bin", params=toy_params)
    path.write_bytes(_record_bytes(serialize.KIND_SCORES, toy_params, (0,), fmt, b""))
    with pytest.raises(ModelFormatError, match=r"^score file shape \(0,\) holds a 0: classify"):
        serialize.load_scores(path, clear)
    with pytest.raises(ParameterError, match=r"^score shape \(0,\) holds a 0"):
        serialize.save_scores(cnn.EncScores([]), fmt, clear, tmp_path / "s.bin",
                              params=toy_params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["record.bin"]


def test_values_of_another_format_are_refused_before_writing(tmp_path, toy_params):
    """A score or image value whose format is not the file's would load
    misread (two w=12 scores saved as w=10 came back as 1.0 and -8.0), so
    saving it is refused before a byte is written."""
    clear = ClearBackend()
    wide, narrow = fp.FixedPointFormat(12, 6), fp.FixedPointFormat(10, 5)
    scores = cnn.EncScores([fp.encode(0.5, wide, clear), fp.encode(-1.0, wide, clear)])
    with pytest.raises(FormatMismatchError, match="format"):
        serialize.save_scores(scores, narrow, clear, tmp_path / "s.bin", params=toy_params)
    img = cnn.encrypt_image(np.zeros((1, 1, 2)), narrow, clear)
    img.channels[0][0][1] = fp.encode(0.25, wide, clear)
    with pytest.raises(FormatMismatchError, match="format"):
        serialize.save_enc_image(img, narrow, clear, tmp_path / "i.bin", params=toy_params)
    assert list(tmp_path.iterdir()) == []
    serialize.save_scores(scores, wide, clear, tmp_path / "s.bin", params=toy_params)
    loaded, fmt = serialize.load_scores(tmp_path / "s.bin", clear)
    assert (fmt, [fp.decode(v) for v in loaded.scores]) == (wide, [0.5, -1.0])


def test_clear_padding_bits_must_be_zero(tmp_path, toy_params):
    """A clear payload's bits after its last encoded bit are zero; a file
    with one of them set, its digest valid, is refused at load."""
    fmt = fp.FixedPointFormat(6, 3)
    clear = ClearBackend()
    path = tmp_path / "s.bin"
    for payload, refused in ((b"\x05", False), (b"\x45", True), (b"\x85", True)):
        path.write_bytes(_record_bytes(serialize.KIND_SCORES, toy_params, (1,), fmt, payload))
        if refused:
            with pytest.raises(ModelFormatError, match="padding bits"):
                serialize.load_scores(path, clear)
        else:
            scores, _ = serialize.load_scores(path, clear)
            assert fp.decode(scores.scores[0]) == 0.625


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["weights", "biases"])
def test_model_non_finite_real_rejected(tmp_path, token, field):
    path = tmp_path / "m.txt"
    model_io.save_model(micro_model(), path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(field))
    words = lines[at].split()
    words[1] = token
    lines[at] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="non-finite"):
        model_io.load_model(path)
