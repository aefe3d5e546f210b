"""Encrypted CNN inference: convolution, ReLU, max pooling, fully connected.

Layers run over FixedPointCipher grids.  A convolution layer performs a
valid (no padding, stride 1) multi-channel convolution: every output
channel's kernel spans all input channels, one bias per output channel,
activation applied before the non-overlapping max pooling.  Flattening
between the last convolution and the fully connected head is
channel-major, then row, then column.

Independent output channels and nodes are embarrassingly parallel; a
``workers`` knob fans them out while per-task seed scopes keep results
bit-identical for any worker count; a clear backend with ``fast_arith``
runs each layer as one whole-array integer computation instead.  Scores
stay encrypted: argmax is the client's job after decryption.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError
from .fixedpoint import (
    FixedPointCipher,
    FixedPointFormat,
    _from_ints,
    _lane_values,
    circuit_cost,
    encode,
    float_to_scaled,
    fp_add,
    fp_max,
    fp_mul,
    fp_mul_const,
    fp_relu,
    guard_range,
    int_dtype,
    scaled_mul,
)

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "EncImage",
    "EncScores",
    "dot_product",
    "conv_layer",
    "fc_layer",
    "classify",
    "flatten_order",
    "flatten_image",
    "encrypt_image",
    "reference_classify",
    "argmax",
    "paper_architecture_shapes",
]

CONVOLUTION = "conv"
FULLY_CONNECTED = "fc"
RELU = "relu"
LINEAR = "linear"

# The network family the experiments use: 28x28 in, two 5x5 conv layers
# (4 then 15 feature maps, 2x2 pooling), 240 features into 10 classes.
paper_architecture_shapes = {
    "input": (1, 28, 28),
    "conv1": (4, 1, 5, 5),
    "conv2": (15, 4, 5, 5),
    "fc": (10, 240),
}


@dataclass
class LayerSpec:
    kind: str
    in_channels: int
    out_channels: int
    weights: np.ndarray
    biases: np.ndarray
    activation: str = RELU
    kernel_size: int = 0
    pool_size: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.kind not in (CONVOLUTION, FULLY_CONNECTED):
            raise ParameterError(f"unknown layer kind {self.kind!r}")
        if self.activation not in (RELU, LINEAR):
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.kind == CONVOLUTION:
            want = (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)
            if self.kernel_size < 1 or self.pool_size < 1:
                raise ParameterError("convolution needs kernel_size >= 1, pool_size >= 1")
        else:
            want = (self.out_channels, self.in_channels)
        if self.weights.shape != want:
            raise ShapeError(f"{self.kind} weights shape {self.weights.shape}, expected {want}")
        if self.biases.shape != (self.out_channels,):
            raise ShapeError(f"bias shape {self.biases.shape}, expected ({self.out_channels},)")


@dataclass
class NetworkSpec:
    layers: list
    input_height: int
    input_width: int
    fmt: FixedPointFormat
    input_channels: int = 1

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if self.layers[-1].kind != FULLY_CONNECTED:
            raise ShapeError("final layer must be fully connected")
        self.check_shapes()

    def check_shapes(self):
        """Walk the layer chain and verify every input/output shape agrees."""
        c, h, w = self.input_channels, self.input_height, self.input_width
        flat = None
        for i, layer in enumerate(self.layers):
            if layer.kind == CONVOLUTION:
                if flat is not None:
                    raise ShapeError(f"layer {i}: convolution after flattening")
                if layer.in_channels != c:
                    raise ShapeError(
                        f"layer {i}: expects {layer.in_channels} channels, input has {c}")
                side_h, side_w = h - layer.kernel_size + 1, w - layer.kernel_size + 1
                if side_h < 1 or side_w < 1:
                    raise ShapeError(f"layer {i}: kernel larger than input {h}x{w}")
                if side_h % layer.pool_size or side_w % layer.pool_size:
                    raise ShapeError(
                        f"layer {i}: conv output {side_h}x{side_w} not divisible "
                        f"by pool {layer.pool_size}")
                c, h, w = layer.out_channels, side_h // layer.pool_size, side_w // layer.pool_size
            else:
                if flat is None:
                    flat = c * h * w
                if layer.in_channels != flat:
                    raise ShapeError(
                        f"layer {i}: expects {layer.in_channels} inputs, got {flat}")
                flat = layer.out_channels
        return flat

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_channels


@dataclass
class EncImage:
    channels: list  # [channel][row][col] of FixedPointCipher
    height: int
    width: int

    def __post_init__(self):
        for grid in self.channels:
            if len(grid) != self.height or any(len(row) != self.width for row in grid):
                raise ShapeError("channel grid does not match declared height/width")


@dataclass
class EncScores:
    scores: list  # one FixedPointCipher per class


def flatten_order(channels: int, h: int, w: int) -> list:
    """Index mapping of the flattening bijection: entry i is the (channel,
    row, col) triple stored at flat position i = ch*h*w + row*w + col."""
    return [(ch, r, c) for ch in range(channels) for r in range(h) for c in range(w)]


def flatten_image(img: EncImage) -> list:
    return [img.channels[ch][r][c]
            for ch, r, c in flatten_order(len(img.channels), img.height, img.width)]


def dot_product(inputs, weights, bias: float, encrypt_weights: bool = False) -> FixedPointCipher:
    """Weighted sum plus bias, accumulated in input order.

    Public weights enter as noiseless constants; with ``encrypt_weights``
    they are encrypted first, which changes nothing about the plaintext
    result (a tested equivalence) but models the private-model setting.
    """
    inputs = list(inputs)
    weights = list(weights)
    if len(inputs) != len(weights):
        raise ShapeError(f"dot product length mismatch: {len(inputs)} inputs, "
                         f"{len(weights)} weights")
    if not inputs:
        raise ParameterError("dot product needs at least one term")
    fmt, backend = inputs[0].fmt, inputs[0].backend
    acc = encode(float(bias), fmt, backend, encrypt=encrypt_weights)
    for x, w in zip(inputs, weights):
        if encrypt_weights:
            term = fp_mul(x, encode(float(w), fmt, backend, encrypt=True))
        else:
            term = fp_mul_const(x, float(w))
        acc = fp_add(acc, term)
    return acc


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def conv_layer(img: EncImage, spec: LayerSpec, encrypt_weights: bool = False,
               workers: int = 1, layer_index: int = 0) -> EncImage:
    """Valid convolution over all input channels, bias, activation, pooling."""
    if spec.kind != CONVOLUTION:
        raise ParameterError("conv_layer needs a convolution LayerSpec")
    if len(img.channels) != spec.in_channels:
        raise ShapeError(f"image has {len(img.channels)} channels, "
                         f"layer expects {spec.in_channels}")
    k, pool = spec.kernel_size, spec.pool_size
    side_h, side_w = img.height - k + 1, img.width - k + 1
    if side_h < 1 or side_w < 1:
        raise ShapeError(f"kernel {k} larger than image {img.height}x{img.width}")
    if side_h % pool or side_w % pool:
        raise ShapeError(f"conv output {side_h}x{side_w} not divisible by pool {pool}")
    backend = img.channels[0][0][0].backend
    if backend.fast_arith:
        return _int_conv_layer(img, spec, backend)

    def one_channel(oc: int):
        flat_w = spec.weights[oc].ravel()
        bias = float(spec.biases[oc])
        with backend.seed_scope(layer_index, oc):
            grid = []
            for r in range(side_h):
                row = []
                for c in range(side_w):
                    window = [img.channels[ic][r + kr][c + kc]
                              for ic in range(spec.in_channels)
                              for kr in range(k) for kc in range(k)]
                    value = dot_product(window, flat_w, bias,
                                        encrypt_weights=encrypt_weights)
                    if spec.activation == RELU:
                        value = fp_relu(value)
                    row.append(value)
                grid.append(row)
            if pool == 1:
                return grid
            pooled = []
            for r in range(0, side_h, pool):
                prow = []
                for c in range(0, side_w, pool):
                    window = [grid[r + dr][c + dc]
                              for dr in range(pool) for dc in range(pool)]
                    prow.append(fp_max(window))
                pooled.append(prow)
            return pooled

    channels = _parallel_map(one_channel, list(range(spec.out_channels)), workers)
    return EncImage(channels, side_h // pool, side_w // pool)


def fc_layer(features, spec: LayerSpec, encrypt_weights: bool = False,
             workers: int = 1, layer_index: int = 0) -> EncScores:
    """One dot product per output node; linear activation is the identity."""
    if spec.kind != FULLY_CONNECTED:
        raise ParameterError("fc_layer needs a fully connected LayerSpec")
    features = list(features)
    if len(features) != spec.in_channels:
        raise ShapeError(f"{len(features)} features, layer expects {spec.in_channels}")
    backend = features[0].backend
    if backend.fast_arith:
        return _int_fc_layer(features, spec, backend)

    def one_node(node: int):
        with backend.seed_scope(layer_index, node):
            value = dot_product(features, spec.weights[node], float(spec.biases[node]),
                                encrypt_weights=encrypt_weights)
            if spec.activation == RELU:
                value = fp_relu(value)
            return value

    return EncScores(_parallel_map(one_node, list(range(spec.out_channels)), workers))


# ----------------------------------------------------------------------
# whole-layer integer evaluation (clear backend with fast_arith)
# ----------------------------------------------------------------------

def _int_neurons(x, spec: LayerSpec, fmt: FixedPointFormat, backend):
    """``dot_product`` of x (lanes, ..., fan-in) with every output's weights,
    then the activation: (lanes, ..., out).  The bias comes first and each
    floored product is added in input order; every product and partial sum
    is range-checked.  Charges the NANDs of the circuits this stands for."""
    to_int = np.frompyfunc(lambda r: float_to_scaled(r, fmt), 1, 1)
    weights = to_int(spec.weights.reshape(spec.out_channels, -1)).astype(x.dtype)
    terms = scaled_mul(x[..., None, :], weights, fmt)
    guard_range(terms, fmt, "multiplication")
    np.cumsum(terms, axis=-1, out=terms)  # in place: the products become partial sums
    terms += to_int(spec.biases).astype(x.dtype)[:, None]
    guard_range(terms, fmt, "addition")
    values = terms[..., -1]
    nands = terms[0].size * (circuit_cost("mul", fmt) + circuit_cost("add", fmt))
    if spec.activation == RELU:
        values = np.maximum(values, 0)
        nands += values[0].size * circuit_cost("relu", fmt)
    backend.stats.bump_nand(nands)
    return values


def _int_conv_layer(img: EncImage, spec: LayerSpec, backend) -> EncImage:
    fmt = img.channels[0][0][0].fmt
    k, pool, out = spec.kernel_size, spec.pool_size, spec.out_channels
    x = np.array([[[_lane_values(v) for v in row] for row in grid] for grid in img.channels],
                 dtype=int_dtype(fmt))                         # (c, h, w, lanes)
    win = sliding_window_view(x, (k, k), axis=(1, 2)).transpose(3, 1, 2, 0, 4, 5)
    lanes, side_h, side_w = win.shape[:3]                      # window order (c, kr, kc)
    values = _int_neurons(win.reshape(lanes, side_h, side_w, -1), spec, fmt, backend)
    h, w = side_h // pool, side_w // pool
    blocks = values.reshape(lanes, h, pool, w, pool, out).swapaxes(2, 3)
    blocks = blocks.reshape(lanes, h, w, pool * pool, out)     # pool window in row order
    values = blocks[:, :, :, 0]
    for i in range(1, pool * pool):
        guard_range(values - blocks[:, :, :, i], fmt, "comparison")
        values = np.maximum(values, blocks[:, :, :, i])
    backend.stats.bump_nand(values[0].size * (pool * pool - 1) * circuit_cost("maxfold", fmt))
    cells = [_from_ints(v, fmt, backend)
             for v in values.transpose(3, 1, 2, 0).reshape(-1, lanes).tolist()]
    return EncImage(np.array(cells, dtype=object).reshape(out, h, w).tolist(), h, w)


def _int_fc_layer(features, spec: LayerSpec, backend) -> EncScores:
    fmt = features[0].fmt
    x = np.array([_lane_values(v) for v in features], dtype=int_dtype(fmt)).T
    values = _int_neurons(x, spec, fmt, backend)               # (lanes, out)
    return EncScores([_from_ints(v, fmt, backend) for v in values.T.tolist()])


def classify(img: EncImage, net: NetworkSpec, encrypt_weights: bool = False,
             workers: int = 1) -> EncScores:
    """Run all layers in order; returns per-class encrypted scores."""
    if (len(img.channels), img.height, img.width) != (
            net.input_channels, net.input_height, net.input_width):
        raise ShapeError(
            f"image shape {(len(img.channels), img.height, img.width)} does not "
            f"match network input "
            f"{(net.input_channels, net.input_height, net.input_width)}")
    current = img
    features = None
    for i, layer in enumerate(net.layers):
        if layer.kind == CONVOLUTION:
            current = conv_layer(current, layer, encrypt_weights=encrypt_weights,
                                 workers=workers, layer_index=i)
        else:
            if features is None:
                features = flatten_image(current)
            features = fc_layer(features, layer, encrypt_weights=encrypt_weights,
                                workers=workers, layer_index=i).scores
    return EncScores(features)


def encrypt_image(pixels: np.ndarray, fmt: FixedPointFormat, backend,
                  encrypt: bool = True) -> EncImage:
    """Encode (and on an encrypted backend, encrypt) a (c, h, w) or (h, w)
    array of reals into an EncImage."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim == 2:
        pixels = pixels[None, :, :]
    if pixels.ndim != 3:
        raise ShapeError(f"expected a 2-D or 3-D pixel array, got shape {pixels.shape}")
    _, h, w = pixels.shape
    channels = [[[encode(float(pixels[ch, r, c]), fmt, backend, encrypt=encrypt)
                  for c in range(w)] for r in range(h)]
                for ch in range(pixels.shape[0])]
    return EncImage(channels, h, w)


def argmax(values) -> int:
    """Index of the maximum; ties resolve to the lowest index."""
    best, best_idx = None, 0
    for i, v in enumerate(values):
        if best is None or v > best:
            best, best_idx = v, i
    return best_idx


# ----------------------------------------------------------------------
# double-precision reference (the comparison target for error analysis)
# ----------------------------------------------------------------------

def reference_classify(pixels: np.ndarray, net: NetworkSpec) -> np.ndarray:
    """Same network evaluated in float64; mirrors layer order and windows."""
    x = np.asarray(pixels, dtype=np.float64)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.shape != (net.input_channels, net.input_height, net.input_width):
        raise ShapeError(
            f"image shape {x.shape} does not match network input "
            f"{(net.input_channels, net.input_height, net.input_width)}")
    flat = None
    for layer in net.layers:
        if layer.kind == CONVOLUTION:
            x = _reference_conv(x, layer)
        else:
            if flat is None:
                flat = x.reshape(-1)
            flat = layer.weights @ flat + layer.biases
            if layer.activation == RELU:
                flat = np.maximum(flat, 0.0)
    return flat


def _reference_conv(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    k, pool = layer.kernel_size, layer.pool_size
    _, h, w = x.shape
    side_h, side_w = h - k + 1, w - k + 1
    out = np.empty((layer.out_channels, side_h, side_w))
    for oc in range(layer.out_channels):
        for r in range(side_h):
            for c in range(side_w):
                out[oc, r, c] = np.sum(x[:, r:r + k, c:c + k] * layer.weights[oc]) \
                    + layer.biases[oc]
    if layer.activation == RELU:
        out = np.maximum(out, 0.0)
    if pool > 1:
        pooled = np.empty((layer.out_channels, side_h // pool, side_w // pool))
        for r in range(0, side_h, pool):
            for c in range(0, side_w, pool):
                pooled[:, r // pool, c // pool] = out[:, r:r + pool, c:c + pool].max(axis=(1, 2))
        out = pooled
    return out
