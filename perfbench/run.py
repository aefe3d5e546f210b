"""End-to-end and per-layer benchmark of gatecnn inference.

Run from the root of a gatecnn checkout:

    python3 perfbench/run.py --workload clear_paper --seed 1 --seconds 30 --trace 0

``--trace 0`` times images with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` is a separate run that wraps the
library's public functions in spans and reports the per-layer metrics.
Both print a table first and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory defines every workload and metric.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 1 before measuring anything.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import (CALLS, INCL_NANDS, INCL_REFRESHES, INCL_S, SELF_NANDS,  # noqa: E402
                   SELF_S, Tracer, patched)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# name: (demo model, encrypted on the toy preset, encrypt_weights)
WORKLOADS = {
    "clear_paper": ("preset_model", False, False),
    "gsw_tiny": ("tiny_model", True, False),
    "gsw_private": ("micro_model", True, True),
}
IMAGE_POOL = 16        # seeded images per run, cycled if a run gets through more
SETUP_REPEATS = 7      # this process plus six fresh ones; setup_s is their median
KERNEL_REPEATS = 200   # calls of the public refresh timed in the traced run

# Reported in the final JSON of a --trace 0 run, and gated by BENCHMARK.json:
# metrics that are never 0 on any workload and steady from run to run.  The
# rest of END_TO_END is printed in the table only: image_s and classify_s
# drift with the shared host's speed by more than the largest allowed bound
# (see README.md), the others are 0 on clear_paper or depend on the seed.
JSON_END_TO_END = ("setup_s", "nand_per_image", "peak_rss_mb")
END_TO_END = {
    "setup_s": "s",
    "image_s": "s",
    "classify_s": "s",
    "nand_per_image": "count",
    "refresh_per_image": "count",
    "enc_image_bytes": "B",
    "scores_bytes": "B",
    "peak_rss_mb": "MB",
    "score_err_max": "score",
    "fail_frac": "ratio",
}
GATE_OPS = ("add", "sub", "mul_wallace", "compare", "mux")
FIXEDPOINT_OPS = ("encode", "fp_add", "fp_mul", "fp_mul_const", "fp_relu", "fp_max")
SERIALIZE_OPS = ("save_enc_image", "load_enc_image", "save_scores", "load_scores")
TRACED_LAYERS = 3      # the deepest workload (clear_paper) has three layers


def per_layer_units() -> dict:
    units = {
        "fhe_core.nand_calls": "count",
        "fhe_core.nand_trivial_frac": "ratio",
        "fhe_core.nand_s": "s",
        "fhe_core.nand_us": "us",
        "fhe_core.refresh_calls": "count",
        "fhe_core.refresh_per_nontrivial": "ratio",
        "fhe_core.refresh_us": "us",
        "fhe_core.encrypt_bit_s": "s",
        "fhe_core.reveal_bit_s": "s",
        "fhe_core.peak_tracked_noise": "int",
        "fhe_core.true_noise_max": "int",
    }
    for prefix, ops in (("gates", GATE_OPS), ("fixedpoint", FIXEDPOINT_OPS)):
        for op in ops:
            units.update({f"{prefix}.{op}.calls": "count",
                          f"{prefix}.{op}.nands": "count",
                          f"{prefix}.{op}.self_s": "s"})
    for i in range(TRACED_LAYERS):
        units.update({f"cnn.layer{i}.s": "s",
                      f"cnn.layer{i}.nands": "count",
                      f"cnn.layer{i}.refreshes": "count"})
    units.update({
        "cnn.encrypt_image_s": "s",
        "cnn.reference_s": "s",
        "error_analysis.theorem_bound_s": "s",
        "error_analysis.bound_use": "ratio",
        "error_analysis.bare_bound_use": "ratio",
        "error_analysis.score_err_max": "score",
    })
    units.update({f"serialize.{op}_s": "s" for op in SERIALIZE_OPS})
    units.update({
        "serialize.bytes_per_bit": "B/bit",
        "serialize.enc_image_bytes": "B",
        "serialize.scores_bytes": "B",
        "model_io.load_model_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.spans_per_image": "count",
    })
    return units


def load_program() -> SimpleNamespace:
    """Import gatecnn from this checkout's src/, and nowhere else."""
    package = SRC / "gatecnn"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no gatecnn sources at {package}; "
                 "run from the root of a gatecnn checkout")
    sys.path.insert(0, str(SRC))
    import gatecnn
    from gatecnn import (cnn, demo, error_analysis, fhe_core, fixedpoint, gates,
                         model_io, serialize)
    if Path(gatecnn.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported gatecnn from {gatecnn.__file__}, not {package}")
    return SimpleNamespace(cnn=cnn, demo=demo, error_analysis=error_analysis,
                           fhe_core=fhe_core, fixedpoint=fixedpoint, gates=gates,
                           model_io=model_io, serialize=serialize)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

@dataclass
class Setup:
    seed: int
    encrypted: bool
    encrypt_weights: bool
    net: object
    images: list
    bound: object          # error_analysis.ErrorBoundReport
    params: object         # FheParams, gsw only
    key: object            # SecretKey, gsw only
    load_model_s: float
    theorem_bound_s: float


def set_up(p, workload: str, seed: int, workdir: Path) -> Setup:
    """Model build, save and load, seeded images, keygen and warm-ups."""
    model_name, encrypted, encrypt_weights = WORKLOADS[workload]
    model_path = workdir / "model.txt"
    p.model_io.save_model(getattr(p.demo, model_name)(), model_path)
    started = time.perf_counter()
    net = p.model_io.load_model(model_path)
    load_model_s = time.perf_counter() - started
    images = p.demo.synthetic_images(IMAGE_POOL, net.input_height, net.input_width,
                                     seed=seed)
    started = time.perf_counter()
    bound = p.error_analysis.theorem_bound(net)
    theorem_bound_s = time.perf_counter() - started
    params = key = None
    if encrypted:
        params = p.fhe_core.preset_params("toy")
        key = p.fhe_core.keygen(params, seed)
    s = Setup(seed, encrypted, encrypt_weights, net, images, bound, params, key,
              load_model_s, theorem_bound_s)
    _warm_up(p, s)
    return s


def _warm_up(p, s: Setup) -> None:
    """Pay one-time costs before timing: the fixed-point cost-probe cache
    of the clear word path, and the first gsw kernel calls."""
    fp = p.fixedpoint
    clear = p.fhe_core.ClearBackend(fast_arith=not s.encrypted)
    x = fp.encode(0.5, s.net.fmt, clear)
    fp.fp_max([fp.fp_relu(fp.fp_add(x, fp.fp_mul_const(x, 0.25))), x])
    if s.encrypted:
        gsw = p.fhe_core.GswBackend(s.params, key=s.key, seed=0, auto_refresh=True)
        bit = gsw.encrypt_bit(1)
        gsw.reveal_bit(gsw.nand(bit, bit))


def make_backend(p, s: Setup, index: int):
    if s.encrypted:
        return p.fhe_core.GswBackend(s.params, key=s.key, seed=s.seed * 1_000_003 + index,
                                     auto_refresh=True)
    return p.fhe_core.ClearBackend(fast_arith=True)


# ----------------------------------------------------------------------
# one image: pixels to decoded scores, then its correctness check
# ----------------------------------------------------------------------

def run_image(p, s: Setup, index: int, workdir: Path, tracer=None, workers: int = 1) -> dict:
    """Encrypt (gsw: and save/load the image file), classify (gsw: and
    save/load the score file), decode.  Timed; checked by check_image."""
    pixels = s.images[index % len(s.images)]
    fmt = s.net.fmt
    backend = make_backend(p, s, index)
    span = nullcontext
    if tracer is not None:
        tracer.image = index
        tracer.attach(backend)
        span = tracer.span
    out = {"index": index}
    nands0, refreshes0, _ = backend.stats.snapshot()
    started = time.perf_counter()
    with span("image"):
        with span("cnn.encrypt_image"):
            enc = p.cnn.encrypt_image(pixels, fmt, backend, encrypt=True)
        if s.encrypted:
            image_path = workdir / "image.bin"
            with span("serialize.save_enc_image"):
                p.serialize.save_enc_image(enc, fmt, backend, image_path)
            with span("serialize.load_enc_image"):
                enc, _ = p.serialize.load_enc_image(image_path, backend)
        classify_started = time.perf_counter()
        with span("cnn.classify"):
            scores = p.cnn.classify(enc, s.net, encrypt_weights=s.encrypt_weights,
                                    workers=workers)
        out["classify_s"] = time.perf_counter() - classify_started
        if s.encrypted:
            scores_path = workdir / "scores.bin"
            with span("serialize.save_scores"):
                p.serialize.save_scores(scores, fmt, backend, scores_path)
            with span("serialize.load_scores"):
                scores, _ = p.serialize.load_scores(scores_path, backend)
        with span("fixedpoint.decode"):
            values = [p.fixedpoint.decode(v) for v in scores.scores]
    out["image_s"] = time.perf_counter() - started
    nands1, refreshes1, peak_noise = backend.stats.snapshot()
    out.update(nands=nands1 - nands0, refreshes=refreshes1 - refreshes0,
               peak_noise=peak_noise, values=values,
               ints=[round(v * fmt.scale) for v in values])
    if s.encrypted:
        out["enc_image_bytes"] = os.path.getsize(image_path)
        out["scores_bytes"] = os.path.getsize(scores_path)
        if tracer is not None:
            out["true_noise"] = max(p.fhe_core.true_noise(s.key, bit.ciphertext)
                                    for v in scores.scores for bit in v.bits.bits)
    return out


def check_image(p, s: Setup, result: dict) -> None:
    """Adds ``ok``, ``err_max`` and ``reference_s`` to an image result.

    clear: the argmax equals the float64 reference's and every score
    error is within total_bound + rescaling_slack.  gsw: the decrypted
    score integers are bit-identical to a gate-level ClearBackend run of
    the same image, with the same NAND count.
    """
    pixels = s.images[result["index"] % len(s.images)]
    started = time.perf_counter()
    reference = p.cnn.reference_classify(pixels, s.net)
    result["reference_s"] = time.perf_counter() - started
    errors = [abs(got - want) for got, want in zip(result["values"], reference)]
    result["err_max"] = max(errors)
    if not s.encrypted:
        result["ok"] = (p.cnn.argmax(result["values"]) == p.cnn.argmax(reference)
                        and result["err_max"] <= s.bound.bound_with_slack)
        return
    clear = p.fhe_core.ClearBackend()
    enc = p.cnn.encrypt_image(pixels, s.net.fmt, clear)
    scores = p.cnn.classify(enc, s.net, encrypt_weights=s.encrypt_weights)
    clear_ints = [v.bits.to_int() for v in scores.scores]
    result["ok"] = (result["ints"] == clear_ints
                    and result["nands"] == clear.stats.nand_count)


# ----------------------------------------------------------------------
# tracing: wrap the public functions as their callers see them
# ----------------------------------------------------------------------

def traced_functions(p, tracer) -> list:
    """(module, attribute, wrapper) for every traced function: the gates
    circuits (looked up on the module by fixedpoint and by gates itself),
    the fixedpoint names imported into cnn, and the cnn layer functions."""
    out = [(p.gates, op, tracer.wrap(getattr(p.gates, op), f"gates.{op}"))
           for op in GATE_OPS]
    out += [(p.cnn, op, tracer.wrap(getattr(p.cnn, op), f"fixedpoint.{op}"))
            for op in FIXEDPOINT_OPS]

    def layer_name(kwargs):
        return f"cnn.layer{kwargs.get('layer_index', 0)}"

    out += [(p.cnn, fn, tracer.wrap(getattr(p.cnn, fn), layer_name))
            for fn in ("conv_layer", "fc_layer")]
    return out


def time_refresh(p, s: Setup) -> float:
    """Median microseconds of the public fhe_core.refresh on a fresh bit."""
    fc = p.fhe_core
    ct = fc.encrypt_bit(s.key, s.params, 1, rng_seed=s.seed)
    times = []
    for i in range(KERNEL_REPEATS):
        started = time.perf_counter()
        fc.refresh(s.key, ct, s.params, rng_seed=i)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def measure(p, s: Setup, seconds: float, tracer, workdir: Path) -> list:
    """Images in a closed loop (the next starts when the last is checked)
    until ``seconds`` have passed.  With a tracer, image 0 runs untraced as
    the reference for the count invariants and the tracing overhead, and
    at least one traced image follows."""
    results = []
    started = time.perf_counter()

    def one(index, traced):
        try:
            if traced:
                with patched(traced_functions(p, tracer)):
                    result = run_image(p, s, index, workdir, tracer=tracer)
            else:
                result = run_image(p, s, index, workdir)
            check_image(p, s, result)
        except Exception:  # counted as a failed image; the run goes on
            traceback.print_exc()
            result = {"index": index, "ok": False, "traced": traced}
        result["traced"] = traced
        results.append(result)

    if tracer is None:
        while not results or time.perf_counter() - started < seconds:
            one(len(results), False)
        return results
    one(0, False)
    while len(results) < 2 or time.perf_counter() - started < seconds:
        one(len(results), True)
    return results


def setup_times(workload: str, seed: int, own: float) -> list:
    """This process's set-up time plus that of fresh processes, each
    measured from interpreter start-up to the end of set_up."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def median_of(results, key, median=statistics.median):
    values = [r[key] for r in results if key in r]
    return median(values) if values else 0.0


def count_invariants(results, s: Setup, tracer) -> list:
    """Messages for each violated count invariant (empty when all hold)."""
    problems = []
    done = [r for r in results if "nands" in r]
    for key in ("nands", "refreshes"):
        if len({r[key] for r in done}) > 1:
            problems.append(f"{key} per image differ between images: "
                            f"{sorted({r[key] for r in done})}")
    if tracer is None or not done:
        return problems
    traced = [r for r in done if r["traced"]]
    nands, refreshes = done[0]["nands"], done[0]["refreshes"]
    layers = [f"cnn.layer{i}" for i in range(TRACED_LAYERS)]
    layer_nands = sum(tracer.total(name, INCL_NANDS) for name in layers)
    layer_refreshes = sum(tracer.total(name, INCL_REFRESHES) for name in layers)
    if layer_nands != nands * len(traced):
        problems.append(f"sum of cnn.layer<i>.nands {layer_nands} over {len(traced)} "
                        f"traced images != nand_per_image {nands}")
    if layer_refreshes != refreshes * len(traced):
        problems.append(f"sum of cnn.layer<i>.refreshes {layer_refreshes} over "
                        f"{len(traced)} traced images != refresh_per_image {refreshes}")
    if s.encrypted and tracer.total("fhe_core.nand", CALLS) != nands * len(traced):
        problems.append("traced fhe_core.nand calls differ from the NAND counter")
    return problems


def end_to_end_metrics(results, s: Setup, setup_s: float) -> dict:
    attempted = len(results)
    failed = sum(1 for r in results if not r["ok"])
    return {
        "setup_s": setup_s,
        "image_s": median_of(results, "image_s"),
        "classify_s": median_of(results, "classify_s"),
        "nand_per_image": median_of(results, "nands", statistics.median_low),
        "refresh_per_image": median_of(results, "refreshes", statistics.median_low),
        "enc_image_bytes": median_of(results, "enc_image_bytes", statistics.median_low),
        "scores_bytes": median_of(results, "scores_bytes", statistics.median_low),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "score_err_max": max((r["err_max"] for r in results if "err_max" in r), default=0.0),
        "fail_frac": failed / attempted,
    }


def per_layer_metrics(p, results, s: Setup, tracer) -> dict:
    traced = [r for r in results if r["traced"] and "nands" in r]
    n = max(1, len(traced))
    t = tracer.total
    m = {}
    nand_calls = t("fhe_core.nand", CALLS)
    nontrivial = nand_calls - tracer.trivial_nands
    refreshes = median_of(traced, "refreshes", statistics.median_low)
    m["fhe_core.nand_calls"] = nand_calls / n
    m["fhe_core.nand_trivial_frac"] = tracer.trivial_nands / nand_calls if nand_calls else 0.0
    m["fhe_core.nand_s"] = t("fhe_core.nand", INCL_S) / n
    m["fhe_core.nand_us"] = t("fhe_core.nand", INCL_S) / nand_calls * 1e6 if nand_calls else 0.0
    m["fhe_core.refresh_calls"] = refreshes
    m["fhe_core.refresh_per_nontrivial"] = refreshes * n / nontrivial if nontrivial else 0.0
    m["fhe_core.refresh_us"] = time_refresh(p, s) if s.encrypted else 0.0
    m["fhe_core.encrypt_bit_s"] = t("fhe_core.encrypt_bit", INCL_S) / n
    m["fhe_core.reveal_bit_s"] = t("fhe_core.reveal_bit", INCL_S) / n
    m["fhe_core.peak_tracked_noise"] = max((r["peak_noise"] for r in traced), default=0.0)
    m["fhe_core.true_noise_max"] = max((r.get("true_noise", 0) for r in traced), default=0)
    for prefix, ops in (("gates", GATE_OPS), ("fixedpoint", FIXEDPOINT_OPS)):
        for op in ops:
            name = f"{prefix}.{op}"
            m[f"{name}.calls"] = t(name, CALLS) / n
            m[f"{name}.nands"] = t(name, SELF_NANDS) / n
            m[f"{name}.self_s"] = t(name, SELF_S) / n
    for i in range(TRACED_LAYERS):
        m[f"cnn.layer{i}.s"] = t(f"cnn.layer{i}", INCL_S) / n
        m[f"cnn.layer{i}.nands"] = t(f"cnn.layer{i}", INCL_NANDS) / n
        m[f"cnn.layer{i}.refreshes"] = t(f"cnn.layer{i}", INCL_REFRESHES) / n
    m["cnn.encrypt_image_s"] = t("cnn.encrypt_image", INCL_S) / n
    m["cnn.reference_s"] = median_of(results, "reference_s")
    err = max((r["err_max"] for r in results if "err_max" in r), default=0.0)
    m["error_analysis.theorem_bound_s"] = s.theorem_bound_s
    m["error_analysis.bound_use"] = err / s.bound.bound_with_slack
    m["error_analysis.bare_bound_use"] = err / s.bound.total_bound
    m["error_analysis.score_err_max"] = err
    for op in SERIALIZE_OPS:
        m[f"serialize.{op}_s"] = t(f"serialize.{op}", INCL_S) / n
    net = s.net
    image_bits = (net.input_channels * net.input_height * net.input_width
                  * net.fmt.total_bits)
    enc_bytes = median_of(traced, "enc_image_bytes", statistics.median_low)
    m["serialize.bytes_per_bit"] = enc_bytes / image_bits
    m["serialize.enc_image_bytes"] = enc_bytes
    m["serialize.scores_bytes"] = median_of(traced, "scores_bytes", statistics.median_low)
    m["model_io.load_model_s"] = s.load_model_s
    untraced = [r for r in results if not r["traced"] and "image_s" in r]
    base = median_of(untraced, "image_s")
    m["trace.overhead_frac"] = median_of(traced, "image_s") / base - 1.0 if base else 0.0
    m["trace.spans_per_image"] = len(tracer.start) / n
    return m


def print_table(metrics: dict, units: dict, notes: dict) -> None:
    for name, unit in units.items():
        value = metrics[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {text:>14} {unit:<6} {notes.get(name, '')}".rstrip())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    p = load_program()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = set_up(p, args.workload, args.seed, workdir)
        own_setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(f"{own_setup_s!r}")
            return 0
        setups = setup_times(args.workload, args.seed, own_setup_s)
        tracer = Tracer() if args.trace else None
        results = measure(p, s, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end_metrics(results, s, statistics.median(setups))
    problems = count_invariants(results, s, tracer)
    attempted = len(results)
    failed = sum(1 for r in results if not r["ok"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  workers 1")
    print(f"images: {attempted} attempted, {failed} failed "
          f"(failed = check failed or raised)")
    if tracer is None:
        n_images = sum(1 for r in results if "image_s" in r)
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "image_s": f"median of {n_images} images",
                 "classify_s": f"median of {n_images} images"}
        print_table(e2e, END_TO_END, notes)
        print("  image times (s): " + " ".join(
            f"{r['image_s']:.3f}" for r in results if "image_s" in r))
        metrics = {name: e2e[name] for name in JSON_END_TO_END}
        units = END_TO_END
    else:
        metrics = per_layer_metrics(p, results, s, tracer)
        units = per_layer_units()
        print_table(metrics, units, {})
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"INVARIANT VIOLATED: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
