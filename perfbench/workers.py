"""One-off measurement: does workers=2 buy anything over workers=1?

    python3 perfbench/workers.py --seed 1 --images 2

Runs the same seeded images of clear_paper and gsw_private through the
benchmark's image pipeline with workers=1 and workers=2, interleaved
image by image, checks that decoded score integers and NAND counts are
identical, and prints the wall-time ratio.  The result is recorded in
README.md; it is a note, not a workload.
"""

import argparse
import os
import shutil
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--images", type=int, default=2)
    args = ap.parse_args()
    p = run.load_program()
    workdir = run.OUT_DIR / f"workers-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    identical = True
    try:
        for workload in ("gsw_private", "clear_paper"):
            s = run.set_up(p, workload, args.seed, workdir)
            wall = {1: 0.0, 2: 0.0}
            for index in range(args.images):
                outputs = {}
                for workers in (1, 2):
                    r = run.run_image(p, s, index, workdir, workers=workers)
                    wall[workers] += r["image_s"]
                    outputs[workers] = (r["ints"], r["nands"], r["refreshes"])
                identical &= outputs[1] == outputs[2]
                print(f"{workload} image {index}: outputs "
                      f"{'identical' if outputs[1] == outputs[2] else 'DIFFER'}")
            print(f"{workload}: workers=1 {wall[1]:.2f} s, workers=2 {wall[2]:.2f} s "
                  f"over {args.images} images; ratio w2/w1 = {wall[2] / wall[1]:.3f} "
                  f"on {os.cpu_count()} cores")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
