"""Worst-case numerical error bound of a network and its empirical check.

The fixed-point pipeline starts every value off by at most
``initial_delta = 1/scale`` (the encoding floor).  A layer multiplies the
incoming error by at most ``r * d``: ``r`` is the square root of the
convolution window size (the kernel for a conv layer, the fan-in for a
fully connected one) and ``d`` the largest Euclidean norm over the
layer's per-output weight vectors.  ReLU and max pooling only forward
one of their inputs, so they contribute no factor.  The total bound is
``initial_delta`` times the product of every layer's ``r * d``; for the
full architecture the r-product is 5 * 5 * sqrt(240).

That product ignores two real effects: the one-sided floor performed
after every multiply (plus weight/bias quantization), and the fact that
a multi-channel convolution's dot product actually spans
``kernel^2 * in_channels`` terms.  Both are folded into a separately
tracked ``rescaling_slack`` term, computed from a fully pessimistic
error recursion, so that ``total_bound + rescaling_slack`` is a sound
ceiling and violations of the bare bound can be attributed.

Empirical errors are measured against the float64 reference on the
clear backend, whose outputs are bit-identical to the encrypted ones;
that equivalence is what makes the full-size network measurable on a
desk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cnn import (CONVOLUTION, PIXEL_BOUND, NetworkSpec, argmax, classify,
                  encrypt_image, reference_classify)
from .fhe_core import ClearBackend
from .fixedpoint import decode

__all__ = ["LayerErrorFactors", "ErrorBoundReport", "layer_factors",
           "theorem_bound", "empirical_error"]


@dataclass
class LayerErrorFactors:
    layer_index: int
    kind: str
    s: int                 # r-base: kernel^2 for conv, fan-in for fc
    fan_in: int            # true dot-product length including channels
    r_i: float             # sqrt(s)
    d_i: float             # max Euclidean norm over output weight vectors
    d_i_sum: float         # max sum-of-absolute-values variant, for comparison
    magnitude_in: float    # worst-case |input| entering this layer
    bias_max: float


@dataclass
class ErrorBoundReport:
    initial_delta: float
    factors: list
    total_bound: float
    total_bound_sum_variant: float
    rescaling_slack: float
    r_product: float
    empirical_max_error: float | None = None
    empirical_mean: float | None = None
    empirical_std: float | None = None
    images_checked: int = 0
    scores_checked: int = 0
    bound_violations: int = 0         # against total_bound alone
    slack_violations: int = 0         # against total_bound + rescaling_slack
    classes: list = field(default_factory=list)  # per image: (fixed-point, reference) argmax
    errors: list = field(default_factory=list)   # per image: |fixed-point - reference| scores

    @property
    def bound_with_slack(self) -> float:
        return self.total_bound + self.rescaling_slack


def layer_factors(spec, layer_index: int = 0, magnitude_in: float = 1.0) -> LayerErrorFactors:
    """Per-layer (r, d) pair.

    Convolution: r is the kernel size -- the window side, not the channel
    fan-in, so two 5x5 layers contribute exactly 25 to the r-product --
    while d takes the Euclidean norm over the channel's full
    kernel_size^2 * in_channels weights.  Fully connected:
    r = sqrt(fan-in), d = max row norm.  Biases carry no input error and
    stay out of the norms.
    """
    w = spec.weights.reshape(spec.out_channels, -1)
    fan_in = w.shape[1]
    s = spec.kernel_size ** 2 if spec.kind == CONVOLUTION else fan_in
    norms = np.sqrt((w ** 2).sum(axis=1))
    sums = np.abs(w).sum(axis=1)
    return LayerErrorFactors(
        layer_index=layer_index,
        kind=spec.kind,
        s=s,
        fan_in=fan_in,
        r_i=math.sqrt(s),
        d_i=float(norms.max()),
        d_i_sum=float(sums.max()),
        magnitude_in=magnitude_in,
        bias_max=float(np.abs(spec.biases).max(initial=0.0)),
    )


def theorem_bound(net: NetworkSpec) -> ErrorBoundReport:
    """initial_delta times the product of every layer's r*d, plus the
    pessimistic slack covering what that product omits."""
    delta = 1.0 / net.fmt.scale
    factors = []
    magnitude = PIXEL_BOUND  # encrypt_image and classify confine the inputs
    for i, layer in enumerate(net.layers):
        lf = layer_factors(layer, i, magnitude)
        factors.append(lf)
        # worst-case value growth; activation and pooling cannot increase it
        magnitude = lf.d_i_sum * magnitude + lf.bias_max
    total = delta
    total_sum = delta
    r_product = 1.0
    for lf in factors:
        total *= lf.r_i * lf.d_i
        total_sum *= lf.r_i * lf.d_i_sum
        r_product *= lf.r_i
    slack = max(0.0, _sound_ceiling(factors, delta) - total)
    return ErrorBoundReport(
        initial_delta=delta,
        factors=factors,
        total_bound=total,
        total_bound_sum_variant=total_sum,
        rescaling_slack=slack,
        r_product=r_product,
    )


def _sound_ceiling(factors, delta: float) -> float:
    """Fully pessimistic per-score error: propagates with the true fan-in
    (sqrt(fan) * quantized-weight norm) and adds each layer's local floor
    mass: one rescale floor per product term, weight quantization against
    the stored-value magnitude (true magnitude plus accumulated error),
    and the bias encoding."""
    err = delta
    magnitude = PIXEL_BOUND
    for lf in factors:
        d_quant = lf.d_i + math.sqrt(lf.fan_in) * delta
        local = (lf.fan_in * (1.0 + magnitude + err) + 1.0) * delta
        err = math.sqrt(lf.fan_in) * d_quant * err + local
        # worst-case value growth under quantized weights
        magnitude = (lf.d_i_sum + lf.fan_in * delta) * magnitude + lf.bias_max + delta
    return err


def empirical_error(net: NetworkSpec, images) -> ErrorBoundReport:
    """Populate a bound report with measured per-score errors.

    Runs each (c, h, w) image of the iterable through the fixed-point path
    on the clear backend (bit-identical to the encrypted path by the
    cross-backend equivalence invariant) and through the float64 reference
    on identical weights.  Besides the summary fields, the report keeps
    each image's argmax pair in ``classes`` and its per-score error array
    in ``errors``, in input order.
    """
    net.certificate()  # RangeError if a weight does not encode, before its norm overflows
    report = theorem_bound(net)
    for pixels in images:
        pixels = np.asarray(pixels, dtype=np.float64)
        backend = ClearBackend(fast_arith=True)
        scores = classify(encrypt_image(pixels, net.fmt, backend), net)
        got = np.array([decode(s) for s in scores.scores])
        want = reference_classify(pixels, net)
        report.classes.append((argmax(got), argmax(want)))
        report.errors.append(np.abs(got - want))
    stacked = np.concatenate(report.errors) if report.errors else np.zeros(0)
    report.images_checked = len(report.errors)
    report.scores_checked = int(stacked.size)
    if stacked.size:
        report.empirical_max_error = float(stacked.max())
        report.empirical_mean = float(stacked.mean())
        report.empirical_std = float(stacked.std())
        report.bound_violations = int((stacked > report.total_bound).sum())
        report.slack_violations = int((stacked > report.bound_with_slack).sum())
    return report
