"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py          # gsw_private only, about 20 s
    python3 perfbench/selftest.py --all    # every workload in BENCHMARK.json

For each workload and both --trace modes it checks that the run exits 0;
that its last line is one JSON object with exactly the keys correct,
attempted, failed and metrics; that it emits exactly the metrics
BENCHMARK.json names, with the same units; that the run is correct with
no failed image; and that every end-to-end value is positive.  It also
checks that a directory holding only BENCHMARK.json and this benchmark
(no gatecnn sources) makes the benchmark exit non-zero without a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(bench: dict, workload: str, trace: int) -> list:
    cmd = bench["command"] + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        return [f"exit status {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = last_json(done.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["last line is not the result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, units {wrong}")
    if not trace:
        problems += [f"{name} = {m['value']} is not positive"
                     for name, m in result["metrics"].items() if not m["value"] > 0]
    return problems


def check_bare_directory(bench: dict, workload: str) -> list:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = bench["command"] + ["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        return [f"exit status {done.returncode} and a result printed without sources"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--all", action="store_true", help="every workload, not just gsw_private")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]] if args.all else ["gsw_private"]
    failures = 0
    checks = [(f"{w} --trace {t}", check_run, (bench, w, t))
              for w in workloads for t in (0, 1)]
    checks.append(("bare directory", check_bare_directory, (bench, workloads[0])))
    for label, check, check_args in checks:
        problems = check(*check_args)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
