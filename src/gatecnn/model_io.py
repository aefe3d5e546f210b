"""Text model format and image loading.

Model files are line-oriented so any external training tool can emit
them:

    gatecnn-model 1
    format <total_bits> <frac_bits>
    input <channels> <height> <width>
    layer conv <in> <out> kernel <k> pool <p> act <relu|linear>
    weights <out*in*k*k reals, row-major, whitespace/newline separated>
    biases <out reals>
    layer fc <in> <out> act <relu|linear>
    weights <out*in reals, row-major>
    biases <out reals>
    end

Weights are written with repr() so float64 values survive a round trip
byte-exactly.  Images come in as 8-bit PGM (P2 or P5), mapped to
[-1, 1] by v = pixel / 127.5 - 1, or as CSV of reals, which
``cnn.encrypt_image`` accepts only in [-1, 1] (``cnn.PIXEL_BOUND``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .cnn import CONVOLUTION, FULLY_CONNECTED, LINEAR, RELU, LayerSpec, NetworkSpec
from .errors import ModelFormatError, ParameterError, ShapeError
from .fixedpoint import FixedPointFormat

__all__ = ["load_model", "save_model", "load_image", "save_pgm", "save_csv"]

_MAGIC = "gatecnn-model"
_VERSION = 1


def save_model(net: NetworkSpec, path) -> None:
    lines = [f"{_MAGIC} {_VERSION}",
             f"format {net.fmt.total_bits} {net.fmt.frac_bits}",
             f"input {net.input_channels} {net.input_height} {net.input_width}"]
    for layer in net.layers:
        if layer.kind == CONVOLUTION:
            lines.append(f"layer conv {layer.in_channels} {layer.out_channels} "
                         f"kernel {layer.kernel_size} pool {layer.pool_size} "
                         f"act {layer.activation}")
        else:
            lines.append(f"layer fc {layer.in_channels} {layer.out_channels} "
                         f"act {layer.activation}")
        lines.append("weights " + " ".join(repr(float(v)) for v in layer.weights.ravel()))
        lines.append("biases " + " ".join(repr(float(v)) for v in layer.biases.ravel()))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _TokenReader:
    def __init__(self, text: str):
        self.tokens = text.split()
        self.pos = 0

    def take(self, n: int = 1):
        if self.pos + n > len(self.tokens):
            raise ModelFormatError("model file ended unexpectedly")
        out = self.tokens[self.pos:self.pos + n]
        self.pos += n
        return out

    def word(self) -> str:
        return self.take()[0]

    def expect(self, literal: str) -> None:
        got = self.word()
        if got != literal:
            raise ModelFormatError(f"expected {literal!r}, found {got!r}")

    def integer(self, minimum: int = 1) -> int:
        """An integer >= ``minimum``: every count and size is at least 1."""
        tok = self.word()
        try:
            value = int(tok)
        except ValueError:
            raise ModelFormatError(f"expected an integer, found {tok!r}")
        if value < minimum:
            raise ModelFormatError(f"expected an integer >= {minimum}, found {value}")
        return value

    def reals(self, n: int) -> np.ndarray:
        toks = self.take(n)
        try:
            values = np.array([float(t) for t in toks], dtype=np.float64)
        except ValueError as exc:
            raise ModelFormatError(f"bad real value in weights: {exc}")
        bad = ~np.isfinite(values)
        if bad.any():
            raise ModelFormatError(f"non-finite weight or bias {toks[int(bad.argmax())]!r}")
        return values


def load_model(path) -> NetworkSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}")
    rd = _TokenReader(text)
    rd.expect(_MAGIC)
    version = rd.integer()
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    rd.expect("format")
    total_bits, frac_bits = rd.integer(), rd.integer(minimum=0)
    rd.expect("input")
    channels, height, width = rd.integer(), rd.integer(), rd.integer()

    layers = []
    while True:
        word = rd.word()
        if word == "end":
            break
        if word != "layer":
            raise ModelFormatError(f"expected 'layer' or 'end', found {word!r}")
        kind = rd.word()
        if kind == "conv":
            cin, cout = rd.integer(), rd.integer()
            rd.expect("kernel")
            k = rd.integer()
            rd.expect("pool")
            pool = rd.integer()
            rd.expect("act")
            act = _activation(rd.word())
            rd.expect("weights")
            w = rd.reals(cout * cin * k * k).reshape(cout, cin, k, k)
            rd.expect("biases")
            b = rd.reals(cout)
            layers.append((CONVOLUTION, cin, cout, w, b, act, k, pool))
        elif kind == "fc":
            cin, cout = rd.integer(), rd.integer()
            rd.expect("act")
            act = _activation(rd.word())
            rd.expect("weights")
            w = rd.reals(cout * cin).reshape(cout, cin)
            rd.expect("biases")
            b = rd.reals(cout)
            layers.append((FULLY_CONNECTED, cin, cout, w, b, act))
        else:
            raise ModelFormatError(f"unknown layer kind {kind!r}")

    try:
        return NetworkSpec([LayerSpec(*layer) for layer in layers], height, width,
                           FixedPointFormat(total_bits, frac_bits),
                           input_channels=channels)
    except (ShapeError, ParameterError) as exc:
        raise ModelFormatError(f"inconsistent model: {exc}")


def _activation(word: str) -> str:
    if word not in (RELU, LINEAR):
        raise ModelFormatError(f"unknown activation {word!r}")
    return word


# ----------------------------------------------------------------------
# images
# ----------------------------------------------------------------------

def load_image(path) -> np.ndarray:
    """Read a (1, h, w) array of reals from an 8-bit PGM or a CSV file."""
    text_path = str(path)
    if text_path.lower().endswith((".pgm", ".pnm")):
        return _load_pgm(path)
    if text_path.lower().endswith(".csv"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file only warns
                data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ModelFormatError(f"bad CSV image {path}: {exc}")
        if data.size == 0:
            raise ModelFormatError(f"CSV image {path} holds no pixels")
        if not np.isfinite(data).all():
            raise ModelFormatError(f"CSV image {path} holds a NaN or infinite pixel")
        return data[None, :, :]
    raise ModelFormatError(f"unsupported image format for {path} (expect .pgm or .csv)")


def _load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos == len(data):
            raise ModelFormatError("PGM header ended early")
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    try:
        magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise ModelFormatError(f"non-numeric PGM header field in {fields[1:]}")
    if width < 1 or height < 1:
        raise ModelFormatError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ModelFormatError(f"only 8-bit PGM supported, maxval={maxval}")
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        if len(data) - pos < width * height:
            raise ModelFormatError("PGM raster shorter than declared dimensions")
        raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    elif magic == b"P2":
        try:
            raster = np.array(data[pos:].split()[: width * height], dtype=np.uint8)
        except (ValueError, OverflowError):
            raise ModelFormatError("bad P2 PGM raster value")
    else:
        raise ModelFormatError(f"not a PGM file: magic {magic!r}")
    if raster.size != width * height:
        raise ModelFormatError("PGM raster shorter than declared dimensions")
    pixels = raster.reshape(height, width).astype(np.float64) / 127.5 - 1.0
    return pixels[None, :, :]


def save_pgm(pixels: np.ndarray, path) -> None:
    """Write a (h, w) or (1, h, w) array of [-1, 1] reals as binary PGM."""
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[0]
    raster = np.clip(np.round((arr + 1.0) * 127.5), 0, 255).astype(np.uint8)
    h, w = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(raster.tobytes())


def save_csv(pixels: np.ndarray, path) -> None:
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[0]
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")
