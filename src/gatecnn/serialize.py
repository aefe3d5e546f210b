"""Binary wire formats for keys, encrypted images and score files.

Every file starts with a fixed 16-byte header:

    offset  size  field
    0       4     magic "GCN2"
    4       1     record kind: K key, I image, S scores
    5       1     preset id (0 toy, 1 demo, 255 custom)
    6       1     backend id (0 clear, 1 gsw)
    7       1     reserved, zero
    8       4     u32 LE ct_dim
    12      4     u32 LE log_q

followed by length-prefixed sections (u32 LE byte count, then payload):

    section 1  params block: u32 lattice_dim, f64 noise_stddev, f64 noise_budget
    section 2  kind-specific metadata (see _RECORDS below)
    section 3  payload
    section 4  SHA-256 digest of every byte before this section

A key file has no metadata section: its payload, the secret vector,
follows the params block.  The digest makes an altered file, say a
flipped matrix entry that is still below q, refused instead of loaded as
another valid key or ciphertext.

Matrix and vector entries are row-major unsigned little-endian integers
of ceil(log_q / 8) bytes.  A gsw payload stores what a Ciphertext holds:
first every bit's f64 noise estimate, in bit order, then every bit's
message interval as two i64 (lo <= hi), then every bit's
ct_dim x (lattice_dim + 1) recomposed matrix M, each entry below q.
Clear payloads pack one bit per encoded bit, LSB-first within bytes.
A preset's params block must equal that preset.  Every section must
have exactly its kind's length and nothing may follow the last one.
Round trips are bit-exact.  GCN1 files, which stored each bit's binary
matrix C, are refused.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile

import numpy as np

from .cnn import EncImage, EncScores
from .errors import FormatMismatchError, ModelFormatError, ParameterError
from .fhe_core import PRESETS, Ciphertext, EncBit, FheParams, SecretKey, _PRESET_IDS
from .fixedpoint import FixedPointCipher, FixedPointFormat
from .gates import BitVector

__all__ = [
    "save_secret_key",
    "load_secret_key",
    "save_enc_image",
    "load_enc_image",
    "save_scores",
    "load_scores",
    "read_header",
    "atomic_write_bytes",
]

MAGIC = b"GCN2"
KIND_KEY = ord("K")
KIND_IMAGE = ord("I")
KIND_SCORES = ord("S")

_BACKEND_IDS = {"clear": 0, "gsw": 1}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}
_ID_PRESETS = {v: k for k, v in _PRESET_IDS.items()}


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gcn-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_size(log_q: int) -> int:
    return (log_q + 7) // 8


def _pack_entries(values: np.ndarray, esize: int) -> bytes:
    flat = np.ascontiguousarray(values, dtype=np.int64).ravel()
    shifts = np.arange(esize, dtype=np.int64) * 8
    return ((flat[:, None] >> shifts) & 0xFF).astype(np.uint8).tobytes()


def _unpack_entries(blob: bytes, count: int, esize: int) -> np.ndarray:
    raw = np.frombuffer(blob, dtype=np.uint8, count=count * esize)
    raw = raw.reshape(count, esize).astype(np.int64)
    shifts = np.arange(esize, dtype=np.int64) * 8
    return (raw << shifts).sum(axis=1)


def _header(kind: int, params: FheParams, backend_tag: str) -> bytes:
    preset_id = _PRESET_IDS.get(params.preset, 255)
    return MAGIC + struct.pack(
        "<BBBBII", kind, preset_id, _BACKEND_IDS[backend_tag], 0,
        params.ct_dim, params.log_q)


def _params_section(params: FheParams) -> bytes:
    body = struct.pack("<Idd", params.lattice_dim, params.noise_stddev,
                       params.noise_budget)
    return struct.pack("<I", len(body)) + body


def _section(body: bytes) -> bytes:
    return struct.pack("<I", len(body)) + body


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("file truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.bytes(struct.calcsize(fmt)))

    def section(self, expected: int | None = None) -> bytes:
        (length,) = self.unpack("<I")
        if expected is not None and length != expected:
            raise ModelFormatError(
                f"section holds {length} bytes, expected {expected}")
        return self.bytes(length)

    def section_fields(self, fmt: str):
        """Unpack a section that holds exactly one ``fmt`` record."""
        return struct.unpack(fmt, self.section(struct.calcsize(fmt)))

    def end(self) -> None:
        if self.pos != len(self.data):
            raise ModelFormatError(
                f"{len(self.data) - self.pos} trailing bytes after the last section")


def _with_digest(blob: bytes) -> bytes:
    """``blob`` followed by a section holding the SHA-256 digest of it."""
    return blob + _section(hashlib.sha256(blob).digest())


def _open_signed(path, noun: str, remedy: str) -> _Reader:
    """A reader over the bytes of a ``noun`` file before its digest
    section, once they hash to it, so that any altered byte is refused
    before a field is read.  A file without the section, or too short to
    hold it, is refused with ``remedy``."""
    with open(path, "rb") as fh:
        data = fh.read()
    _check_magic(data[:4])
    body, length, digest = data[:-36], data[-36:-32], data[-32:]
    if len(data) < 36 or length != struct.pack("<I", 32):
        raise ModelFormatError(f"{noun} file has no checksum section: {remedy}")
    if hashlib.sha256(body).digest() != digest:
        raise ModelFormatError(f"{noun} file checksum mismatch: the file was altered")
    return _Reader(body)


def _untrusted(make, *fields, **named):
    """Build a value from file fields; a field it rejects is a format error."""
    try:
        return make(*fields, **named)
    except ParameterError as exc:
        raise ModelFormatError(f"bad field in file: {exc}")


def read_header(path):
    """Parse a file's header; returns (kind, params, backend_tag)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_header(_Reader(data))[:3]


def _check_magic(magic: bytes) -> None:
    if magic == b"GCN1":
        raise ModelFormatError(
            "file predates the GCN2 format: regenerate its key with keygen --seed "
            "(keygen is deterministic) and encrypt its images again")
    if magic != MAGIC:
        raise ModelFormatError("not a gatecnn binary file (bad magic)")


def _parse_header(rd: _Reader):
    _check_magic(rd.bytes(4))
    kind, preset_id, backend_id, _, ct_dim, log_q = rd.unpack("<BBBBII")
    if backend_id not in _BACKEND_NAMES:
        raise ModelFormatError(f"unknown backend id {backend_id}")
    lattice_dim, stddev, budget = rd.section_fields("<Idd")
    if not (math.isfinite(stddev) and math.isfinite(budget)):
        raise ModelFormatError("params block holds a non-finite noise field")
    preset = _ID_PRESETS.get(preset_id, "custom")
    params = _untrusted(FheParams, lattice_dim, log_q, stddev, budget, preset=preset)
    if preset in PRESETS and params != PRESETS[preset]:
        raise ModelFormatError(f"params block does not match preset {preset!r}")
    if params.ct_dim != ct_dim:
        raise ModelFormatError(
            f"header ct_dim {ct_dim} disagrees with (n+1)*log_q = {params.ct_dim}")
    return kind, params, _BACKEND_NAMES[backend_id], rd


# ----------------------------------------------------------------------
# secret keys
# ----------------------------------------------------------------------

def save_secret_key(sk: SecretKey, path) -> None:
    params = sk.params
    esize = _entry_size(params.log_q)
    atomic_write_bytes(path, _with_digest(_header(KIND_KEY, params, "gsw")
                                          + _params_section(params)
                                          + _section(_pack_entries(sk.secret_vector, esize))))


def load_secret_key(path) -> SecretKey:
    rd = _open_signed(path, "key", "regenerate it with keygen --seed (keygen is deterministic)")
    kind, params, _, rd = _parse_header(rd)
    if kind != KIND_KEY:
        raise ModelFormatError("file is not a secret key")
    esize = _entry_size(params.log_q)
    count = params.lattice_dim + 1
    vec = _unpack_entries(rd.section(count * esize), count, esize)
    rd.end()
    return _untrusted(SecretKey, vec, params)


# ----------------------------------------------------------------------
# encrypted bit payloads
# ----------------------------------------------------------------------

def _write_bits(bits, backend) -> bytes:
    if backend.tag == "clear":
        if backend.lanes != 1:
            raise ParameterError("clear files store single-lane data only")
        mask = np.array([b.clear_value for b in bits], dtype=bool)
        return np.packbits(mask, bitorder="little").tobytes()
    cts = [b.ciphertext for b in bits]
    estimates = np.array([ct.noise_estimate for ct in cts], dtype="<f8")
    messages = np.array([ct.message for ct in cts], dtype="<i8")
    matrices = np.array([ct.recomposed for ct in cts])
    return (estimates.tobytes() + messages.tobytes()
            + _pack_entries(matrices, _entry_size(backend.params.log_q)))


def _read_bits(rd: _Reader, count: int, backend):
    """Reads the payload section of ``count`` bits, then expects the end."""
    if backend.tag == "clear":
        blob = rd.section((count + 7) // 8)
        rd.end()
        if blob[-1] >> (count % 8 or 8):
            raise ModelFormatError("clear payload has padding bits set after its last bit")
        masks = np.unpackbits(np.frombuffer(blob, np.uint8), count=count, bitorder="little")
        return [backend.from_mask(m) for m in masks.tolist()]
    params = backend.params
    esize = _entry_size(params.log_q)
    shape = (count, params.ct_dim, params.lattice_dim + 1)
    payload = rd.section(count * (24 + math.prod(shape[1:]) * esize))
    rd.end()
    estimates = np.frombuffer(payload, dtype="<f8", count=count)
    bad = estimates[~(np.isfinite(estimates) & (estimates >= 0))]
    if bad.size:
        raise ModelFormatError(f"ciphertext noise estimate {bad[0]} is not "
                               "a finite non-negative number")
    messages = np.frombuffer(payload, "<i8", 2 * count, 8 * count).reshape(count, 2)
    bad = messages[messages[:, 0] > messages[:, 1]]
    if bad.size:
        raise ModelFormatError(f"ciphertext message interval {bad[0].tolist()} is empty")
    entries = _unpack_entries(payload[24 * count:], math.prod(shape), esize)
    if entries.size and entries.max() >= params.modulus:
        raise ModelFormatError(
            f"ciphertext matrix entry {entries.max()} is not below q = {params.modulus}")
    matrices = entries.reshape(shape).astype(np.float64)
    return [EncBit(backend, ciphertext=Ciphertext(m, e, params, message=tuple(message)))
            for m, e, message in zip(matrices, estimates.tolist(), messages.tolist())]


def _check_backend_match(file_tag: str, file_params: FheParams, backend) -> None:
    if backend.tag != file_tag:
        raise ParameterError(
            f"file was written by the {file_tag} backend, got {backend.tag}")
    if file_tag == "gsw" and backend.params != file_params:
        raise ParameterError("file parameters do not match the backend's")


# ----------------------------------------------------------------------
# images and scores
# ----------------------------------------------------------------------

# record kind -> (its noun in messages, its article and name, the number
# of u32 shape fields its metadata holds before the format's two, and how
# to make the file again)
_RECORDS = {KIND_IMAGE: ("image", "an encrypted image", 3, "encrypt the image again"),
            KIND_SCORES: ("score", "a score file", 1, "classify the image again")}


def _save_record(kind: int, shape, values, fmt: FixedPointFormat, backend, path,
                 params: FheParams | None) -> None:
    """Write ``values`` (FixedPointCiphers of format ``fmt``, row-major over
    ``shape``).  A shape holding a 0, which every load refuses, or a value
    of another format, which would load misread, is refused before a byte
    is written."""
    noun = _RECORDS[kind][0]
    if 0 in shape:
        raise ParameterError(f"{noun} shape {tuple(shape)} holds a 0: a file of no values")
    if any(value.fmt != fmt for value in values):
        raise FormatMismatchError(f"{noun} values not all of the file's format {fmt}")
    params = params if backend.tag == "clear" else backend.params
    if params is None:
        raise ParameterError(
            f"clear {noun} files still need preset params for the header")
    meta = struct.pack(f"<{len(shape) + 2}I", *shape, fmt.total_bits, fmt.frac_bits)
    bits = [bit for value in values for bit in value.bits.bits]
    atomic_write_bytes(path, _with_digest(_header(kind, params, backend.tag)
                                          + _params_section(params)
                                          + _section(meta)
                                          + _section(_write_bits(bits, backend))))


def _load_record(kind: int, path, backend):
    """(shape, an iterator over its FixedPointCiphers in row-major order,
    format) of a ``kind`` record; backend must match the file.  A record
    of no values (a 0 in its shape) is refused."""
    noun, name, dims, remedy = _RECORDS[kind]
    found, params, tag, rd = _parse_header(_open_signed(path, noun, remedy))
    if found != kind:
        raise ModelFormatError(f"file is not {name}")
    _check_backend_match(tag, params, backend)
    *shape, total_bits, frac_bits = rd.section_fields(f"<{dims + 2}I")
    if 0 in shape:
        raise ModelFormatError(f"{noun} file shape {tuple(shape)} holds a 0: {remedy}")
    fmt = _untrusted(FixedPointFormat, total_bits, frac_bits)
    raw = _read_bits(rd, math.prod(shape) * total_bits, backend)
    values = (FixedPointCipher(BitVector(raw[i:i + total_bits]), fmt)
              for i in range(0, len(raw), total_bits))
    return shape, values, fmt


def save_enc_image(img: EncImage, fmt: FixedPointFormat, backend, path,
                   params: FheParams | None = None) -> None:
    _save_record(KIND_IMAGE, (len(img.channels), img.height, img.width),
                 [value for grid in img.channels for row in grid for value in row],
                 fmt, backend, path, params)


def load_enc_image(path, backend):
    """Returns (EncImage, FixedPointFormat); backend must match the file."""
    (channels, height, width), values, fmt = _load_record(KIND_IMAGE, path, backend)
    grids = [[[next(values) for _ in range(width)] for _ in range(height)]
             for _ in range(channels)]
    return EncImage(grids, height, width), fmt


def save_scores(scores: EncScores, fmt: FixedPointFormat, backend, path,
                params: FheParams | None = None) -> None:
    _save_record(KIND_SCORES, (len(scores.scores),), scores.scores, fmt, backend, path, params)


def load_scores(path, backend):
    """Returns (EncScores, FixedPointFormat)."""
    _, values, fmt = _load_record(KIND_SCORES, path, backend)
    return EncScores(list(values)), fmt
