"""Command-line surface: keygen, encrypt-image, classify, decrypt-scores,
bound, verify.

Every command is deterministic given (seed, inputs, preset).  Files are
written atomically.  Exit codes: 0 success, 2 usage, 3 I/O or file
format, 4 shape/range, 5 noise exhaustion, 6 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import error_analysis, model_io, serialize
from .cnn import PIXEL_BOUND, argmax, classify, encrypt_image
from .errors import (
    FormatMismatchError,
    GatecnnError,
    ModelFormatError,
    NoiseExhaustionError,
    OverflowDiagnostic,
    ParameterError,
    RangeError,
    ShapeError,
    VerificationFailure,
    WidthMismatchError,
)
from .fhe_core import ClearBackend, GswBackend, keygen, preset_params
from .fixedpoint import decode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NOISE = 5
EXIT_VERIFY = 6

_EXIT_BY_ERROR = (
    (NoiseExhaustionError, EXIT_NOISE),
    (VerificationFailure, EXIT_VERIFY),
    ((ShapeError, WidthMismatchError, FormatMismatchError, RangeError,
      OverflowDiagnostic), EXIT_SHAPE),
    (ModelFormatError, EXIT_IO),
    (ParameterError, EXIT_USAGE),
    (OSError, EXIT_IO),
)


def _make_backend(tag: str, key_path, seed: int):
    """The backend a file or ``--backend`` names; gsw needs ``--key``."""
    if tag == "clear":
        return ClearBackend(fast_arith=True)
    if not key_path:
        raise ParameterError("the gsw backend requires --key for this command")
    sk = serialize.load_secret_key(key_path)
    try:
        return GswBackend(sk.params, key=sk, seed=seed, auto_refresh=True)
    except ParameterError as exc:  # params a key file states, not the command line
        raise ModelFormatError(f"key file {key_path}: {exc}")


def cmd_keygen(args) -> int:
    if not args.output_path:
        raise ParameterError("keygen needs --out")
    params = preset_params(args.preset or "toy")
    sk = keygen(params, args.seed)
    serialize.save_secret_key(sk, args.output_path)
    print(f"wrote secret key for preset {params.preset!r} "
          f"(n={params.lattice_dim}, log_q={params.log_q}) to {args.output_path}")
    return EXIT_OK


def cmd_encrypt_image(args) -> int:
    if not (args.model_path and args.output_path):
        raise ParameterError("encrypt-image needs --model, --image and --out")
    params = preset_params(args.preset or "toy")  # a gsw image takes its key's
    net = model_io.load_model(args.model_path)
    pixels = model_io.load_image(args.image)
    want = (net.input_channels, net.input_height, net.input_width)
    if pixels.shape != want:
        raise ShapeError(f"image shape {pixels.shape} does not match the "
                         f"model input {want}")
    backend = _make_backend(args.backend, args.key_path, args.seed)
    if args.backend == "gsw" and args.preset not in (None, backend.params.preset):
        raise ParameterError(f"--preset {args.preset} does not match the key's preset "
                             f"{backend.params.preset!r}; a gsw image takes its key's params")
    enc = encrypt_image(pixels, net.fmt, backend, encrypt=True)
    serialize.save_enc_image(enc, net.fmt, backend, args.output_path, params=params)
    bits = int(np.prod(want)) * net.fmt.total_bits
    print(f"encrypted {want[1]}x{want[2]} image to {args.output_path} "
          f"({bits} bit records, backend {args.backend})")
    return EXIT_OK


def cmd_classify(args) -> int:
    if not (args.model_path and args.output_path):
        raise ParameterError("classify needs --model, --in and --out")
    net = model_io.load_model(args.model_path)
    # the input file knows its backend and params; the command line stays the same
    _, params, file_tag = serialize.read_header(args.input_path)
    backend = _make_backend(file_tag, args.key_path, args.seed)
    enc, fmt = serialize.load_enc_image(args.input_path, backend)
    if fmt != net.fmt:
        raise FormatMismatchError(
            f"image fixed-point format {fmt} does not match the model's {net.fmt}")
    started = time.perf_counter()
    scores = classify(enc, net, encrypt_weights=args.encrypt_weights)
    elapsed = time.perf_counter() - started
    serialize.save_scores(scores, net.fmt, backend, args.output_path, params=params)
    nands, refreshes, max_noise = backend.stats.snapshot()
    print(f"classified in {elapsed:.2f}s: {nands} NANDs, {refreshes} refreshes, "
          f"peak tracked noise {max_noise:.0f}")
    print(f"wrote {len(scores.scores)} encrypted scores to {args.output_path}")
    return EXIT_OK


def cmd_decrypt_scores(args) -> int:
    _, _, file_tag = serialize.read_header(args.input_path)
    backend = _make_backend(file_tag, args.key_path, seed=0)  # decryption draws no randomness
    scores, fmt = serialize.load_scores(args.input_path, backend)
    values = [decode(s) for s in scores.scores]
    winner = argmax(values)
    lines = [f"score[{i}] = {v:+.6f}" for i, v in enumerate(values)]
    lines.append(f"argmax = {winner}")
    text = "\n".join(lines)
    print(text)
    if args.output_path:
        serialize.atomic_write_bytes(args.output_path, (text + "\n").encode())
    return EXIT_OK


def cmd_bound(args) -> int:
    if not args.model_path:
        raise ParameterError("bound needs --model")
    net = model_io.load_model(args.model_path)
    certificate = net.certificate()  # RangeError if a weight does not encode
    report = error_analysis.theorem_bound(net)
    print(f"format: w={net.fmt.total_bits} f={net.fmt.frac_bits} "
          f"scale={net.fmt.scale}")
    print(f"{'layer':>5} {'kind':>5} {'s':>5} {'r_i':>10} {'d_i':>10} {'d_i(sum)':>10}")
    for lf in report.factors:
        print(f"{lf.layer_index:>5} {lf.kind:>5} {lf.s:>5} "
              f"{lf.r_i:>10.4f} {lf.d_i:>10.4f} {lf.d_i_sum:>10.4f}")
    print(f"certified bit widths, pixels in [-{PIXEL_BOUND}, {PIXEL_BOUND}]:")
    print(f"{'layer':>5} {'b_x':>5} {'max b_s':>8} {'headroom':>8}")
    for i, layer in enumerate(certificate):
        widest = int(layer.root_bits.max())
        print(f"{i:>5} {layer.input_bits:>5} {widest:>8} {net.fmt.total_bits - widest:>8}")
    print("with --encrypt-weights, from each layer's weight and bias bits b_w, b_b alone:")
    print(f"{'layer':>5} {'b_w':>5} {'b_b':>5} {'b_x':>5} {'b_p':>5} {'max b_s':>8}")
    for i, (spec, layer) in enumerate(zip(net.layers, net.certificate(encrypt_weights=True))):
        b_x, _, b_p = layer.mul_bits
        b_w, b_b = spec.bit_widths(net.fmt)
        print(f"{i:>5} {b_w:>5} {b_b:>5} {b_x:>5} {b_p:>5} {int(layer.root_bits.max()):>8}")
    for i, layer in enumerate(certificate):
        if not layer.fits:
            print(f"layer {i} needs more than w={net.fmt.total_bits} bits: "
                  "gsw classify refuses this model")
    print("machine-readable:")
    print(f"initial_delta={report.initial_delta!r}")
    print(f"r_product={report.r_product!r}")
    print(f"total_bound={report.total_bound!r}")
    print(f"total_bound_sum_variant={report.total_bound_sum_variant!r}")
    print(f"rescaling_slack={report.rescaling_slack!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Print ``empirical_error``'s report over the ``--images`` files: one
    line per image, then match count, error statistics, the bound and its
    violations.  Any argmax mismatch or error beyond the bound-plus-slack
    ceiling is a verification failure."""
    if not args.model_path:
        raise ParameterError("verify needs --model and at least one --images path")
    net = model_io.load_model(args.model_path)
    report = error_analysis.empirical_error(
        net, (model_io.load_image(path) for path in args.images))
    for path, (got, want), errors in zip(args.images, report.classes, report.errors):
        ok = got == want and not (errors > report.bound_with_slack).any()
        print(f"{os.path.basename(str(path))}: class fp={got} ref={want} "
              f"max_err={errors.max():.2e} [{'ok' if ok else 'FAIL'}]")
    mismatches = sum(got != want for got, want in report.classes)
    total = report.images_checked
    print(f"classification matches: {total - mismatches}/{total}")
    print(f"per-score error: mean={report.empirical_mean:.3e} "
          f"std={report.empirical_std:.3e} max={report.empirical_max_error:.3e}")
    print(f"theorem bound: {report.total_bound:.3e} "
          f"(+ rescaling slack {report.rescaling_slack:.3e})")
    attributed = report.bound_violations - report.slack_violations
    print(f"bound violations: {report.bound_violations} "
          f"({attributed} attributed to rescaling slack, "
          f"{report.slack_violations} beyond the slack ceiling)")
    if mismatches or report.slack_violations:
        raise VerificationFailure(
            f"{mismatches} classification mismatches, {report.slack_violations} "
            "errors beyond the bound-plus-slack ceiling")
    return EXIT_OK


# each option once, then each command with the options it reads, in help order
_OPTIONS = {
    "--model": dict(dest="model_path"),
    "--image": dict(required=True),
    "--images": dict(nargs="+", required=True),
    "--in": dict(dest="input_path", required=True),
    "--backend": dict(choices=["clear", "gsw"], default="clear"),
    "--preset": dict(help="FHE parameter preset (toy, demo); default toy, or a gsw key's"),
    "--key": dict(dest="key_path"),
    "--seed": dict(type=int, default=0),
    "--encrypt-weights": dict(
        action="store_true", help="encrypt model weights instead of using public constants"),
    "--out": dict(dest="output_path"),
}

_COMMANDS = (
    ("keygen", cmd_keygen, "generate a secret key file", ("--preset", "--seed", "--out")),
    ("encrypt-image", cmd_encrypt_image, "encode and encrypt a PGM/CSV image",
     ("--model", "--image", "--backend", "--preset", "--key", "--seed", "--out")),
    ("classify", cmd_classify, "run the network over an encrypted image",
     ("--model", "--in", "--key", "--seed", "--encrypt-weights", "--out")),
    ("decrypt-scores", cmd_decrypt_scores, "decrypt scores and print the argmax",
     ("--in", "--key", "--out")),
    ("bound", cmd_bound, "print the per-layer error-bound report", ("--model",)),
    ("verify", cmd_verify, "check fixed-point vs float64 classification",
     ("--model", "--images")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecnn",
        description="NAND-only encrypted CNN inference and its error analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GatecnnError as exc:
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
