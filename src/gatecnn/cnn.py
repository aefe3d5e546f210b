"""Encrypted CNN inference: convolution, ReLU, max pooling, fully connected.

Layers run over FixedPointCipher grids.  A convolution layer performs a
valid (no padding, stride 1) multi-channel convolution: every output
channel's kernel spans all input channels, one bias per output channel,
activation applied before the non-overlapping max pooling.  Flattening
between the last convolution and the fully connected head is
channel-major, then row, then column, and a fully connected layer is the
1 x 1 convolution whose input channels are those features, so each
evaluator runs both kinds of layer, with public or encrypted weights,
through one layer routine.

Each layer is one array walk (windows, neuron sums, ReLU, max pooling):
the gate path walks the input cells' ciphertexts, and a clear backend
with ``fast_arith`` walks the lanes' integers instead, through the
integer forms that the fixedpoint ops' clear-backend branches call, so
both evaluators make the same range checks.  It charges the NANDs the
gate path evaluates by running the gate path's own layer walk over the
inputs' public patterns, each circuit replaced by its folded cost and
output pattern, not by a walk of its own.  The gate path runs in one
thread, its randomness drawn in seed scopes per layer, input row and
block of pool-size output rows, each entered once.
With public weights, a convolution builds each input pixel's products
with the kernel entries its windows read, in every output channel, from
one adder graph planned over just those weights, and ``classify``
builds every multiply, sum and ReLU only as wide as the network's
interval certificate (``NetworkSpec.certificate``) proves its values
need, for pixels in [-PIXEL_BOUND, PIXEL_BOUND].  Each neuron sums its
bias and products in one column reducer (``fixedpoint.fp_sum``), which
reads each of them at its certified bits and folds every public bit into
one constant.  With encrypted weights (the private model setting) the
certificate walks only each layer's public weight and bias bit widths,
so every neuron of a layer has the same widths, and its one reducer sums
the bias and the partial products of its (input, weight) products
straight away (merged arithmetic), built that narrow.  Scores stay
encrypted: argmax is the client's job after decryption.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, RangeError, ShapeError
from .fixedpoint import (
    FixedPointCipher,
    FixedPointFormat,
    PRIVATE,
    _from_ints,
    _lane_values,
    const_mul_costs,
    encode,
    float_to_scaled,
    fold_costs,
    fp_add,  # unused here, like fp_mul and fp_mul_const: tracers wrap them by name
    fp_max,
    fp_mul,
    fp_mul_const,
    fp_mul_consts,
    fp_relu,
    fp_sum,
    int_dtype,
    int_max,
    int_mul,
    int_relu,
    int_sum,
    public_pattern,
    scaled_mul,
    sum_costs,
)
from .gates import BitVector, _sign_extended, const_mul_plan

__all__ = [
    "PIXEL_BOUND",
    "LayerSpec",
    "LayerCertificate",
    "NetworkSpec",
    "EncImage",
    "EncScores",
    "conv_layer",
    "fc_layer",
    "classify",
    "flatten_order",
    "flatten_image",
    "encrypt_image",
    "reference_classify",
    "argmax",
]

CONVOLUTION = "conv"
FULLY_CONNECTED = "fc"
RELU = "relu"
LINEAR = "linear"

# Inputs whose whole-layer charges a LayerSpec keeps (see _charge_layer).
_CHARGES_LIMIT = 64

# Pixels are reals in [-PIXEL_BOUND, PIXEL_BOUND]: encrypt_image and
# classify enforce it, and the error bound and the certificate assume it.
PIXEL_BOUND = 1.0


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer, frozen with read-only weights and biases, because the
    caches below are keyed by format alone.  A fully connected layer is a
    1 x 1 convolution over its in_channels flattened features: its
    kernel_size and pool_size are 1, and its weights are (out, in)."""

    kind: str
    in_channels: int
    out_channels: int
    weights: np.ndarray
    biases: np.ndarray
    activation: str = RELU
    kernel_size: int = 0
    pool_size: int = 1
    # the whole-layer evaluator's NAND charges, kept per format, weight
    # entry, input patterns and widths for the last _CHARGES_LIMIT inputs
    # (see _charge_layer), and per format the scaled weights and biases
    # (see scaled)
    charges: dict = field(default_factory=dict, init=False, repr=False)
    _scaled: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("weights", "biases"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
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
            object.__setattr__(self, "kernel_size", 1)
            object.__setattr__(self, "pool_size", 1)
        if self.weights.shape != want:
            raise ShapeError(f"{self.kind} weights shape {self.weights.shape}, expected {want}")
        if self.biases.shape != (self.out_channels,):
            raise ShapeError(f"bias shape {self.biases.shape}, expected ({self.out_channels},)")

    def scaled(self, fmt: FixedPointFormat) -> tuple:
        """(weights, biases) as ``fmt`` integers in its ``int_dtype``: an
        (out, fan-in) and an (out,) array, computed once per format.  An
        unencodable value raises RangeError."""
        found = self._scaled.get(fmt)
        if found is None:
            to_int = np.frompyfunc(lambda r: float_to_scaled(r, fmt), 1, 1)
            found = self._scaled[fmt] = tuple(
                to_int(values).astype(int_dtype(fmt))
                for values in (self.weights.reshape(self.out_channels, -1), self.biases))
        return found

    def kernel_constants(self, fmt: FixedPointFormat, ic: int, entries) -> tuple:
        """The ``fmt`` integers of the kernel entries ``entries`` on input
        channel ic, where entry oc·k² + kr·k + kc is output channel oc's
        weight at (kr, kc) (see _kernel_entries): the constants of the
        adder-graph plan (``gates.const_mul_plan``) of a pixel whose
        windows read those entries.  For a fully connected layer the one
        entry set of a feature is its column of out weights."""
        kernels = self.scaled(fmt)[0].reshape(self.out_channels, self.in_channels, -1)
        return tuple(kernels[:, ic].ravel()[list(entries)].tolist())

    def bit_widths(self, fmt: FixedPointFormat) -> tuple:
        """(b_w, b_b): the signed bits of the largest |weight| and |bias|
        as ``fmt`` integers, the only facts about the values of encrypted
        weights that their circuits reveal (see NetworkSpec.certificate)."""
        return tuple(int(np.abs(v).max()).bit_length() + 1 for v in self.scaled(fmt))


@dataclass(frozen=True, eq=False)
class LayerCertificate:
    """Intervals of one layer's scaled integers, each a (low, high) pair
    of arrays in the format's ``int_dtype``, when every pixel lies in
    [-PIXEL_BOUND, PIXEL_BOUND], and the widths of the circuits built
    from them.

    Each neuron sums its fan-in + 1 leaves, the bias (leaf 0) and then
    the floored products in window order (leaf j + 1 is product j), in
    one column reducer (``fixedpoint.fp_sum``), whose root is the neuron.

    - ``inputs`` (fan-in,): the values each neuron's terms read, in
      window order (input channel, kernel row, column) for convolution;
    - ``products`` (out, fan-in): each floored product with a weight;
    - ``roots`` (out,): each neuron's sum;
    - ``outputs`` (out,): each output channel or node after the
      activation (max pooling keeps the interval);
    - ``input_bits``: the signed bits every input fits, at most w;
    - ``leaf_bits`` and ``leaf_signed`` (out, fan-in + 1): the bits each
      leaf is read at, unsigned (the bits of its high end) when its
      interval is >= 0, else signed;
    - ``root_bits`` (out,): the signed bits each root fits, at most w,
      the width of its reducer and its ReLU;
    - ``fits``: whether every input, product and root fits w bits, and
      with pooling every difference of two outputs of a channel, so
      that no circuit of the layer can wrap;
    - ``mul_bits``: the (b_x, b_w, b_p) each product with an encrypted
      weight is read at (``fixedpoint.fp_sum``), (w, w, w) for a walk over
      public weights."""

    inputs: tuple
    products: tuple
    roots: tuple
    outputs: tuple
    input_bits: int
    leaf_bits: np.ndarray
    leaf_signed: np.ndarray
    root_bits: np.ndarray
    fits: bool
    mul_bits: tuple


def _signed_bits(low, high) -> np.ndarray:
    """Per entry, the signed bits that hold every integer in [low, high]."""
    magnitude = np.maximum(high, ~low)  # >= 0 wherever low <= high
    return np.array([int(m).bit_length() + 1 for m in np.ravel(magnitude).tolist()],
                    dtype=np.int64).reshape(np.shape(magnitude))


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """The layers in order, frozen like each LayerSpec, with ``layers`` a
    tuple, because the certificates are cached per format."""

    layers: tuple
    input_height: int
    input_width: int
    fmt: FixedPointFormat
    input_channels: int = 1
    # per format, the LayerCertificates (see certificate)
    _certificates: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if self.layers[-1].kind != FULLY_CONNECTED:
            raise ShapeError("final layer must be fully connected")
        self.check_shapes()

    def certificate(self, encrypt_weights: bool = False) -> list:
        """Per layer, the LayerCertificate at ``fmt``, from an interval
        walk over the scaled integers in the evaluators' order: pixels in
        [-PIXEL_BOUND, PIXEL_BOUND] (as ``fmt`` integers), then per layer
        each floored product (``scaled_mul`` at the corners of its
        operands' intervals), each neuron's sum of the bias and the
        products, the activation and max pooling.
        Products and outputs are clipped to the format's range, outside
        which the clear backend raises OverflowDiagnostic.  A pooled
        layer fits only if any two of a channel's outputs differ by at
        most the format's max_int, as the pool's comparisons need.

        With ``encrypt_weights`` the walk reads no weight or bias, only
        the intervals ±(2^(b-1) - 1) of their layer's ``bit_widths`` b, so
        every neuron of a layer has the same widths, found once, and the
        multiplies' widths follow (``mul_bits``).  Computed once per
        format and mode; an unencodable weight raises RangeError."""
        fmt = self.fmt
        found = self._certificates.get((fmt, encrypt_weights))
        if found is not None:
            return found
        w, f, dtype = fmt.total_bits, fmt.frac_bits, int_dtype(fmt)
        values = tuple(np.full(self.input_channels, bound, dtype=dtype) for bound in (
            max(math.floor(-PIXEL_BOUND * fmt.scale), fmt.min_int),
            min(math.floor(PIXEL_BOUND * fmt.scale), fmt.max_int)))
        # values holds one interval per channel of a sides[0] x sides[1]
        # image; an fc layer reads it flattened, one channel per feature
        sides = (self.input_height, self.input_width)
        found = []
        for layer in self.layers:
            if layer.kind == FULLY_CONNECTED:
                values = tuple(np.repeat(v, sides[0] * sides[1]) for v in values)
                sides = (1, 1)
            weights, biases = layer.scaled(fmt)
            out, fan_in = weights.shape
            weights, biases = (weights,), (biases, biases)  # each interval's distinct ends
            if encrypt_weights:  # one row of intervals for every neuron
                bound_w, bound_b = ((1 << b - 1) - 1 for b in layer.bit_widths(fmt))
                weights = tuple(np.full((1, fan_in), z, dtype=dtype) for z in (-bound_w, bound_w))
                biases = tuple(np.full(1, z, dtype=dtype) for z in (-bound_b, bound_b))
            inputs = tuple(np.repeat(v, layer.kernel_size ** 2) for v in values)
            ends = [scaled_mul(x, z, fmt) for x in inputs for z in weights]
            ends = np.minimum.reduce(ends), np.maximum.reduce(ends)
            fits = bool((_signed_bits(*ends) <= w).all())
            products = tuple(np.clip(v, fmt.min_int, fmt.max_int) for v in ends)
            leaves = tuple(np.broadcast_to(np.concatenate([b[:, None], p], axis=1),
                                           (out, fan_in + 1)) for b, p in zip(biases, products))
            roots = tuple(v.sum(axis=1) for v in leaves)
            root_bits = _signed_bits(*roots)
            fits = fits and bool((root_bits <= w).all())
            values = tuple(np.clip(v, fmt.min_int, fmt.max_int) for v in roots)
            if layer.activation == RELU:
                values = tuple(np.maximum(v, 0) for v in values)
            if layer.pool_size > 1:  # max pooling compares by subtraction
                fits = fits and bool((values[1] - values[0] <= fmt.max_int).all())
            input_bits, mul_bits = min(w, int(_signed_bits(*inputs).max())), (w, w, w)
            if encrypt_weights:  # operands at least f + b_p bits wide in all
                b_p = int(_signed_bits(*products).max())
                b_w = min(w, max(layer.bit_widths(fmt)[0], f + b_p - input_bits))
                mul_bits = (max(input_bits, f + b_p - b_w), b_w, b_p)
            unsigned = leaves[0] >= 0
            found.append(LayerCertificate(
                inputs, tuple(np.broadcast_to(v, (out, fan_in)) for v in products), roots, values,
                input_bits, _signed_bits(*leaves) - unsigned, ~unsigned,
                np.minimum(root_bits, w), fits, mul_bits))
            sides = tuple((n - layer.kernel_size + 1) // layer.pool_size for n in sides)
        self._certificates[fmt, encrypt_weights] = found
        return found

    def check_shapes(self) -> None:
        """Walk the layer chain and verify every input/output shape agrees;
        an fc layer reads the c x h x w image flattened, as c·h·w channels
        of a 1 x 1 image."""
        c, h, w = self.input_channels, self.input_height, self.input_width
        flat = False
        for i, layer in enumerate(self.layers):
            if layer.kind == FULLY_CONNECTED:
                c, h, w, flat = c * h * w, 1, 1, True
            elif flat:
                raise ShapeError(f"layer {i}: convolution after flattening")
            if layer.in_channels != c:
                raise ShapeError(f"layer {i}: expects {layer.in_channels} input channels, got {c}")
            side_h, side_w = h - layer.kernel_size + 1, w - layer.kernel_size + 1
            if side_h < 1 or side_w < 1:
                raise ShapeError(f"layer {i}: kernel larger than input {h}x{w}")
            if side_h % layer.pool_size or side_w % layer.pool_size:
                raise ShapeError(
                    f"layer {i}: conv output {side_h}x{side_w} not divisible "
                    f"by pool {layer.pool_size}")
            c, h, w = layer.out_channels, side_h // layer.pool_size, side_w // layer.pool_size

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


def conv_layer(img: EncImage, spec: LayerSpec, encrypt_weights: bool = False,
               layer_index: int = 0, certificate: LayerCertificate | None = None) -> EncImage:
    """Valid convolution over all input channels, bias, activation, pooling.

    Each window sums its bias and products in one column reducer (see
    _walk_layer), at the ``certificate``'s widths when one is given (with
    ``encrypt_weights``, the bounded walk's), else at w bits.  With public
    weights each input pixel's products with the kernel entries its
    windows read come from one shared adder graph, planned for its input
    channel and entry set; with encrypted weights the weights and biases
    are encrypted once per call.  The weight modes
    give the same bits."""
    if spec.kind != CONVOLUTION:
        raise ParameterError("conv_layer needs a convolution LayerSpec")
    return _layer(img, spec, encrypt_weights, layer_index, certificate)


def fc_layer(features, spec: LayerSpec, encrypt_weights: bool = False,
             layer_index: int = 0, certificate: LayerCertificate | None = None) -> EncScores:
    """One neuron per output node; linear activation is the identity.

    The layer runs as the 1 x 1 convolution it is (see LayerSpec): the
    features are the channels of a 1 x 1 image, each node is one output
    channel, and its sum is built as ``conv_layer``'s: with public
    weights each feature's products with every node's weight come from
    one adder graph, and with encrypted weights each weight is encrypted
    once per call."""
    if spec.kind != FULLY_CONNECTED:
        raise ParameterError("fc_layer needs a fully connected LayerSpec")
    features = list(features)
    if len(features) != spec.in_channels:
        raise ShapeError(f"{len(features)} features, layer expects {spec.in_channels}")
    out = _layer(EncImage([[[x]] for x in features], 1, 1), spec, encrypt_weights,
                 layer_index, certificate)
    return EncScores([grid[0][0] for grid in out.channels])


def _layer(img: EncImage, spec: LayerSpec, encrypt_weights: bool, layer_index: int,
           certificate: LayerCertificate | None) -> EncImage:
    """``conv_layer`` for either kind of layer.  ``fc_layer`` calls this,
    not ``conv_layer``, so that a span traced around each of them by name
    never nests one layer inside another."""
    if len(img.channels) != spec.in_channels:
        raise ShapeError(f"image has {len(img.channels)} channels, "
                         f"layer expects {spec.in_channels}")
    k, pool = spec.kernel_size, spec.pool_size
    side_h, side_w = img.height - k + 1, img.width - k + 1
    if side_h < 1 or side_w < 1:
        raise ShapeError(f"kernel {k} larger than image {img.height}x{img.width}")
    if side_h % pool or side_w % pool:
        raise ShapeError(f"conv output {side_h}x{side_w} not divisible by pool {pool}")
    first = img.channels[0][0][0]
    widths = _widths(spec, first.fmt, certificate)
    if first.backend.fast_arith:
        return _int_layer(img, spec, first.backend, encrypt_weights, widths)
    channels = _gate_layer(img, spec, encrypt_weights, layer_index, widths)
    return EncImage(channels, side_h // pool, side_w // pool)


def _widths(spec: LayerSpec, fmt: FixedPointFormat, certificate) -> tuple:
    """(input bits, (out, fan-in + 1) leaf bits and leaf signedness, (out,)
    root bits, and the encrypted weights' multiplies' (b_x, b_w, b_p)) of
    the layer's circuits (see LayerCertificate): its certificate's, else
    w throughout, every leaf read signed.  With encrypted weights the
    certificate is the bounded walk's
    (``NetworkSpec.certificate(encrypt_weights=True)``), whose widths
    follow only the weights' public bit widths."""
    w = fmt.total_bits
    if certificate is None:
        out, fan_in = spec.scaled(fmt)[0].shape
        return (w, np.full((out, fan_in + 1), w), np.ones((out, fan_in + 1), dtype=bool),
                np.full(out, w), (w, w, w))
    c = certificate
    return c.input_bits, c.leaf_bits, c.leaf_signed, c.root_bits, c.mul_bits


def _gate_layer(img: EncImage, spec: LayerSpec, encrypt_weights: bool, layer_index: int,
                widths: tuple) -> list:
    """Output channel grids of a layer run gate by gate at ``widths`` (see
    _widths): _cells_walk over the input cells' ciphertexts with
    ``fp_sum``, ``fp_relu`` and ``fp_max``.

    With public weights the biases are public encodings, and each pixel's
    products come from the adder graph (``fp_mul_consts``) of its input
    channel and entry set, each planned once per call and each product
    built only to the bits its sums read (_kernel_reads).  With
    ``encrypt_weights`` the weights and biases are encrypted once per
    call, in seed scope (layer_index,), only their low ``bit_widths``
    bits (the bits above are wires of the top one)."""
    first = img.channels[0][0][0]
    fmt, backend = first.fmt, first.backend
    cells = np.array(img.channels, dtype=object)
    weights = products = None
    with backend.seed_scope(layer_index):
        if encrypt_weights:
            (weights, b_w), (biases, b_b) = zip(spec.scaled(fmt), spec.bit_widths(fmt))
            weights = _each(lambda z: _encrypt_low(int(z), b_w, fmt, backend), weights)
            bias = _each(lambda z: _encrypt_low(int(z), b_b, fmt, backend), biases)
        else:
            bias = np.array([encode(float(z), fmt, backend, encrypt=False)
                             for z in spec.biases], dtype=object)
    if not encrypt_weights:
        f, w = fmt.frac_bits, fmt.total_bits
        entry_sets = {e for row in _kernel_entries(spec, *cells.shape[1:]) for e in row}
        plans = {(ic, e): const_mul_plan(spec.kernel_constants(fmt, ic, e), widths[0], f, f + w,
                                         _kernel_reads(spec, widths, ic, e))
                 for ic in range(cells.shape[0]) for e in entry_sets}

        def products(ic, r, c, entry_set):
            return fp_mul_consts(cells[ic, r, c], plans[ic, entry_set])
    return _cells_walk(cells, spec, widths, (fp_sum, fp_relu, fp_max), weights, bias,
                       products, lambda *task: backend.seed_scope(layer_index, *task)).tolist()


def _encrypt_low(z: int, bits: int, fmt: FixedPointFormat, backend) -> FixedPointCipher:
    """The ``fmt`` word of the integer z, which fits ``bits`` signed bits,
    with only those low bits encrypted: the bits above are wires of the
    top one."""
    low = BitVector.from_int(z, min(bits, fmt.total_bits), backend, encrypt=True)
    return FixedPointCipher(BitVector(_sign_extended(low.bits, fmt.total_bits)), fmt)


def _each(fn, *arrays) -> np.ndarray:
    """``fn`` of each element tuple of the broadcast ``arrays``, in C order,
    as an object array."""
    return np.frompyfunc(fn, len(arrays), 1)(*arrays)


def _kernel_reads(spec: LayerSpec, widths: tuple, ic: int, entries) -> tuple:
    """Per kernel entry oc·k² + kr·k + kc of ``entries`` on input channel
    ic (see _kernel_entries), the (bits, signed) at which output channel
    oc's sums read its product: leaf (oc, 1 + ic·k² + kr·k + kc) of
    ``widths`` (see _widths), which is the same at every window."""
    k2 = spec.kernel_size ** 2
    oc, kk = np.divmod(np.array(entries, dtype=np.int64), k2)
    leaf = (oc, 1 + ic * k2 + kk)
    return tuple(zip(widths[1][leaf].tolist(), widths[2][leaf].tolist()))


def _objects(values) -> np.ndarray:
    """A 1-D object array of ``values``, each kept whole, tuples too."""
    return np.fromiter(values, dtype=object, count=len(values))


def _kernel_entries(spec: LayerSpec, h: int, w: int) -> list:
    """Per pixel (r, c) of an h x w input channel, its entry set: the
    kernel entries oc·k² + kr·k + kc, of every output channel oc, whose
    windows read it, which pick its products, its plan
    (``LayerSpec.kernel_constants``) and so its charge.  Pixels that the
    same kernel rows and columns read share one tuple: a k x k kernel has
    at most (2k - 1)² entry sets (81 for k = 5), corners and edges
    holding fewer entries than the interior's k²·out."""
    k, out = spec.kernel_size, spec.out_channels

    @cache
    def entries(rows: range, cols: range) -> tuple:
        return tuple(oc * k * k + kr * k + kc for oc in range(out) for kr in rows for kc in cols)

    rows, cols = ([range(max(0, i - n + k), min(k, i + 1)) for i in range(n)] for n in (h, w))
    return [[entries(kr, kc) for kc in cols] for kr in rows]


# ----------------------------------------------------------------------
# the layer walks, and the whole-layer evaluation on the lanes' integers
# (clear backend with fast_arith)
# ----------------------------------------------------------------------

def _walk_layer(x, spec: LayerSpec, leaves, sums, relu, fold):
    """The layer over x (lanes, c, h, w) in one domain's values, (lanes,
    h', w', out), where x may be indices that ``leaves`` looks up, as
    _cells_walk's flat cell indices: each window's values in window
    order (input channel, kernel row, column) go to ``leaves``, which
    returns every output's leaves (..., out, fan-in + 1), the bias and
    then the products; ``sums`` adds each output's leaves to its root
    (..., out), ``relu`` activates them when the layer has ReLU, and
    ``fold(a, b)`` folds each pool window in row order."""
    k, pool, out = spec.kernel_size, spec.pool_size, spec.out_channels
    win = sliding_window_view(x, (k, k), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    lanes, side_h, side_w = win.shape[:3]
    values = sums(leaves(win.reshape(lanes, side_h, side_w, -1)))
    if spec.activation == RELU:
        values = relu(values)
    h, w = side_h // pool, side_w // pool
    blocks = values.reshape(lanes, h, pool, w, pool, out).swapaxes(2, 3)
    blocks = blocks.reshape(lanes, h, w, pool * pool, out)     # pool window in row order
    values = blocks[:, :, :, 0]
    for i in range(1, pool * pool):
        values = fold(values, blocks[:, :, :, i])
    return values


def _cells_walk(cells, spec: LayerSpec, widths: tuple, ops, weights, bias, products,
                scope) -> np.ndarray:
    """The output grids (out, h', w') of a layer over ``cells`` (c, h, w),
    an object array of one domain's values at ``widths`` (see _widths):
    ciphertexts on the gate path, public_patterns in _charge_layer.

    _walk_layer over the cells' flat indices builds each neuron's sum of
    its leaves, its ``bias`` and then its products, each ReLU and each
    pool fold's pairwise max with ``ops``, the domain's (``fp_sum``,
    ``fp_relu``, ``fp_max``), called as the gate path calls those.  With
    encrypted ``weights`` (out, fan-in) each product leaf is the pair
    (input, weight), read at the widths' (b_x, b_w, b_p).  With public
    weights (``weights`` None) the products are a table (out, fan-in,
    h·w) by output channel, kernel entry (ic, kr, kc) and pixel place
    r·w + c, which
    ``products(ic, r, c, entry_set)`` fills with each input pixel's
    products with the kernel entries whose windows read it
    (_kernel_entries), in entry order.

    The table fills row by input row, each in scope ``scope(0, row)``,
    and the walk runs block by block of pool_size output rows, each in
    scope ``scope(1, block)``: on the gate path these are the seed scopes
    (layer_index, 0, row) and (layer_index, 1, block), each entered
    once."""
    k, pool, out = spec.kernel_size, spec.pool_size, spec.out_channels
    add, relu, fold = ops
    input_bits, leaf_bits, leaf_signed, root_bits, mul_bits = widths
    terms = [tuple(zip(*row)) for row in zip(leaf_bits.tolist(), leaf_signed.tolist())]
    if weights is not None:  # each product is read at its multiply's widths
        terms = [term[:1] + (mul_bits,) * (len(term) - 1) for term in terms]
    channels, h, w = cells.shape

    def leaves(windows):
        if weights is not None:
            values = _each(lambda v, z: (v, z), cells.ravel()[windows[..., None, :]], weights)
        else:
            values = table[np.arange(out)[:, None], np.arange(windows.shape[-1]),
                           windows[..., None, :] % (h * w)]
        return np.concatenate([np.broadcast_to(bias[:, None], values.shape[:-1] + (1,)),
                               values], axis=-1)

    def sums(values):
        roots = np.empty(values.shape[:-1], dtype=object)
        for i in np.ndindex(roots.shape):
            roots[i] = add(list(values[i]), terms[i[-1]], int(root_bits[i[-1]]))
        return roots

    if weights is None:
        table = np.empty((out, channels * k * k, h * w), dtype=object)
        for r, row in enumerate(_kernel_entries(spec, h, w)):
            with scope(0, r):
                for ic in range(channels):
                    for c, entry_set in enumerate(row):
                        column = table[:, ic * k * k:(ic + 1) * k * k, r * w + c]
                        column[np.divmod(entry_set, k * k)] = products(ic, r, c, entry_set)
    x = np.arange(cells.size).reshape(1, channels, h, w)
    blocks = []
    for b in range((h - k + 1) // pool):
        with scope(1, b):
            blocks.append(_walk_layer(
                x[:, :, b * pool:(b + 1) * pool + k - 1], spec, leaves, sums,
                lambda v: _each(relu, v, root_bits),
                lambda p, q: _each(lambda a, z: fold([a, z]), p, q)))
    return np.concatenate(blocks, axis=1)[0].transpose(2, 0, 1)


def _int_layer(img: EncImage, spec: LayerSpec, backend, encrypt_weights: bool,
               widths: tuple) -> EncImage:
    """The layer on the lanes' integers: one _walk_layer over them with
    the integer forms of the gate path's ops at ``widths`` (each product's
    input at the input bits, at most its multiply's b_x), then charged by
    _charge_layer."""
    fmt = img.channels[0][0][0].fmt
    weights, biases = spec.scaled(fmt)
    input_bits, leaf_bits, leaf_signed, root_bits, mul_bits = widths
    x = np.array([[[_lane_values(v) for v in row] for row in grid] for grid in img.channels],
                 dtype=int_dtype(fmt)).transpose(3, 0, 1, 2)   # (lanes, c, h, w)

    def leaves(windows):
        values = np.empty(windows.shape[:-1] + (len(biases), windows.shape[-1] + 1),
                          dtype=x.dtype)
        values[..., 0] = biases
        int_mul(windows[..., None, :], weights, fmt, (input_bits, *mul_bits[1:]),
                out=values[..., 1:])
        return values

    values = _walk_layer(x, spec, leaves,
                         lambda v: int_sum(v, fmt, leaf_bits, leaf_signed, root_bits),
                         lambda v: int_relu(v, fmt, root_bits), lambda a, b: int_max(a, b, fmt))
    lanes, h, w, out = values.shape
    patterns = _charge_layer(img.channels, spec, fmt, backend, encrypt_weights, widths)
    cells = [_from_ints(v, fmt, backend, pattern) for v, pattern in
             zip(values.transpose(3, 1, 2, 0).reshape(-1, lanes).tolist(), patterns)]
    return EncImage(np.array(cells, dtype=object).reshape(out, h, w).tolist(), h, w)


# ----------------------------------------------------------------------
# NAND charges of the whole-layer evaluator: what the gate path evaluates
# ----------------------------------------------------------------------

def _charge_layer(inputs, spec: LayerSpec, fmt: FixedPointFormat, backend,
                  encrypt_weights: bool, widths: tuple) -> list:
    """Bump the counter by the NANDs the gate path evaluates for this layer
    on ``inputs`` (its channel grids) at ``widths`` (see _widths), and
    return each output's public_pattern, channel-major.

    Folding makes the count depend on the public weights and on which
    input bits are public, so the gate path's own walk (_cells_walk) runs
    over the inputs' public_patterns, each op replaced by its folded cost
    and output pattern: ``sum_costs`` for a sum, else ``fold_costs``, which
    probe each circuit once per operands and widths in the process, and
    with public weights each pixel's products from _kernel_charge.
    ``spec.charges`` keeps the charges per format, weight mode, widths and
    input patterns; each public image has patterns of its own, so only the
    latest _CHARGES_LIMIT are kept."""
    input_bits, leaf_bits, leaf_signed, root_bits, mul_bits = widths
    cells = _each(public_pattern, np.array(inputs, dtype=object))
    key = (fmt, encrypt_weights, input_bits, leaf_bits.tobytes(), leaf_signed.tobytes(),
           root_bits.tobytes(), mul_bits, cells.shape, tuple(cells.ravel().tolist()))
    found = spec.charges.get(key)
    if found is None:
        while len(spec.charges) >= _CHARGES_LIMIT:
            del spec.charges[next(iter(spec.charges))]  # the oldest
        costs = []  # the (NANDs, output pattern) of each op the walk runs

        def charged(cost):
            costs.append(cost)
            return cost[1]

        ops = (lambda leaves, terms, bits: charged(sum_costs(fmt, leaves, terms, bits)),
               lambda a, bits: charged(fold_costs("relu", fmt, [(a, PRIVATE)], bits)[0]),
               lambda pair: charged(fold_costs("maxfold", fmt, [pair])[0]))
        if encrypt_weights:
            weights = _objects([PRIVATE] * spec.weights.size).reshape(spec.out_channels, -1)
            bias, products = _objects([PRIVATE] * spec.out_channels), None
        else:
            full = (1 << fmt.total_bits) - 1
            weights = None
            bias = _objects([(full, z & full) for z in spec.scaled(fmt)[1].tolist()])
            kernel = _kernel_charge(spec, fmt, cells, widths)

            def products(ic, r, c, entry_set):
                return charged(kernel[ic, entry_set, cells[ic, r, c]])
        outputs = _cells_walk(cells, spec, widths, ops, weights, bias, products,
                              lambda *task: nullcontext())
        found = spec.charges[key] = sum(n for n, _ in costs), outputs.ravel().tolist()
    backend.stats.bump_nand(found[0])
    return found[1]


def _kernel_charge(spec: LayerSpec, fmt: FixedPointFormat, cells, widths: tuple) -> dict:
    """Per (input channel, entry set, public_pattern) of the pixels of
    ``cells`` (c, h, w), public_patterns, the (NANDs, products) of their
    shared multiplies by public weights (``fp_mul_consts``), planned at
    ``widths`` (see _widths) as _gate_layer plans them (for input-bits-wide
    inputs, each product read at its _kernel_reads), the products'
    public_patterns in entry set order as an object array.  Each (input
    channel, entry set) is planned at most once, walked for each of its
    pixels' patterns and dropped before the next (``const_mul_costs``),
    so one plan is held at a time; equal product patterns are kept as one
    object."""
    entries = _kernel_entries(spec, *cells.shape[1:])
    groups, costs, kept = {}, {}, {}
    for (ic, r, c), pattern in np.ndenumerate(cells):
        groups.setdefault((ic, entries[r][c]), {})[pattern] = None
    for (ic, entry_set), patterns in groups.items():
        found = const_mul_costs(fmt, spec.kernel_constants(fmt, ic, entry_set),
                                _kernel_reads(spec, widths, ic, entry_set), widths[0],
                                list(patterns))
        for pattern, (nands, products) in zip(patterns, found):
            products = [kept.setdefault(p, p) for p in products]
            costs[ic, entry_set, pattern] = nands, _objects(products)
    return costs


def classify(img: EncImage, net: NetworkSpec, encrypt_weights: bool = False,
             workers: int = 1) -> EncScores:
    """Run all layers in order; returns per-class encrypted scores.

    Every layer is built to the network's certificate
    (``NetworkSpec.certificate``), exact for pixels in [-PIXEL_BOUND,
    PIXEL_BOUND]; on a clear backend a pixel outside raises RangeError.
    With encrypted weights that is the certificate of the weights' public
    bit widths alone.  An encrypted backend cannot check values as they
    are computed, so there, with public or encrypted weights, a model
    whose certificate of its actual weights does not fit w bits raises
    RangeError before any gate.  That refusal covers the encrypted
    weights' circuits too: a product or root whose bounded width reaches
    w is built at w, and a neuron's reducer sums modulo 2^w there, so when
    every product and the root of every neuron fit w bits, the root is
    the same exact sum.

    The layers run in one thread.  ``workers`` is accepted and ignored
    only because perfbench/run.py still passes it; drop both together."""
    if (len(img.channels), img.height, img.width) != (
            net.input_channels, net.input_height, net.input_width):
        raise ShapeError(
            f"image shape {(len(img.channels), img.height, img.width)} does not "
            f"match network input "
            f"{(net.input_channels, net.input_height, net.input_width)}")
    encrypted = img.channels[0][0][0].backend.is_encrypted
    if not encrypted:
        _check_pixels([v for grid in img.channels for row in grid for v in row], net.fmt)
    certificate = net.certificate()
    unfit = next((i for i, c in enumerate(certificate) if not c.fits), None)
    if encrypted and unfit is not None:
        raise RangeError(f"layer {unfit} needs more than w={net.fmt.total_bits} bits for "
                         f"pixels in [-{PIXEL_BOUND}, {PIXEL_BOUND}], and an encrypted "
                         f"backend cannot check its values; retrain or widen the format")
    if encrypt_weights:
        certificate = net.certificate(encrypt_weights=True)
    current = img
    features = None
    for i, layer in enumerate(net.layers):
        if layer.kind == CONVOLUTION:
            current = conv_layer(current, layer, encrypt_weights=encrypt_weights,
                                 layer_index=i, certificate=certificate[i])
        else:
            if features is None:
                features = flatten_image(current)
            features = fc_layer(features, layer, encrypt_weights=encrypt_weights,
                                layer_index=i, certificate=certificate[i]).scores
    return EncScores(features)


def _check_pixels(values, fmt: FixedPointFormat) -> None:
    """RangeError unless every lane of ``values`` encodes a real in
    [-PIXEL_BOUND, PIXEL_BOUND]."""
    bound = PIXEL_BOUND * fmt.scale
    for v in values:
        z = next((z for z in _lane_values(v) if abs(z) > bound), None)
        if z is not None:
            raise RangeError(f"pixel {z / fmt.scale!r} outside "
                             f"[-{PIXEL_BOUND}, {PIXEL_BOUND}]")


def encrypt_image(pixels: np.ndarray, fmt: FixedPointFormat, backend,
                  encrypt: bool = True) -> EncImage:
    """Encode (and on an encrypted backend, encrypt) a (c, h, w) or (h, w)
    array of reals in [-PIXEL_BOUND, PIXEL_BOUND] into an EncImage; a
    pixel outside raises RangeError."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim == 2:
        pixels = pixels[None, :, :]
    if pixels.ndim != 3:
        raise ShapeError(f"expected a 2-D or 3-D pixel array, got shape {pixels.shape}")
    outside = ~(np.abs(pixels) <= PIXEL_BOUND)  # NaN is outside too
    if outside.any():
        raise RangeError(f"pixel {float(pixels[outside][0])!r} outside "
                         f"[-{PIXEL_BOUND}, {PIXEL_BOUND}]")
    _, h, w = pixels.shape
    channels = [[[encode(float(pixels[ch, r, c]), fmt, backend, encrypt=encrypt)
                  for c in range(w)] for r in range(h)]
                for ch in range(pixels.shape[0])]
    return EncImage(channels, h, w)


def argmax(values) -> int:
    """Index of the maximum; ties resolve to the lowest index, and no
    values raise ParameterError."""
    values = list(values)
    if not values:
        raise ParameterError("argmax needs at least one value")
    return max(range(len(values)), key=values.__getitem__)


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
