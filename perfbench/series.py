#!/usr/bin/env python3
"""Run the benchmark repeatedly and report the run-to-run spread.

    python3 perfbench/series.py --runs 10 --out runs.jsonl [--workload NAME ...]
        [--trace 0|1] [--root CHECKOUT ...]

Each run uses another seed, counting up from the default seed of ``run.py``.
With several ``--root`` checkouts (each holding this benchmark), every seed
runs once in each, alternating which runs first, so that ``compare.py`` can
pair them. Each result is appended to ``--out`` as one JSON line that names
its checkout. At the end it prints, per checkout, workload and metric, the
median with its unit, the quartiles and the spread (interquartile range over
median) beside the bound set in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import DEFAULT_SEED, quartiles  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", action="append", type=Path)
    args = p.parse_args()
    roots = [r.resolve() for r in args.root or [HERE.parent]]
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
    values = {}
    with open(args.out, "a") as out:
        for workload in args.workload or workloads.WORKLOADS:
            for n in range(args.runs):
                seed = DEFAULT_SEED + n
                for root in roots if n % 2 == 0 else roots[::-1]:
                    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                    if proc.returncode != 0:
                        sys.exit(f"{root} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    out.write(json.dumps({"root": str(root), "workload": workload, "seed": seed,
                                          "trace": args.trace, "result": result}) + "\n")
                    out.flush()
                    print(f"{root.name} {workload} seed {seed}: correct {result['correct']}, "
                          f"fail_ratio {result['failed'] / result['attempted']:.4f} "
                          f"({result['failed']} failed of {result['attempted']})", flush=True)
                    for name, m in result["metrics"].items():
                        values.setdefault((str(root), workload, name), (m["unit"], []))[1].append(
                            m["value"]
                        )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for (root, workload, name), (unit, vals) in values.items():
        q1, median, q3 = quartiles(vals)
        spread = (q3 - q1) / median if median else 0.0
        if name in bounds:
            flag = "  (over a third of the bound)" if spread > bounds[name] / 3 else ""
            print(f"{Path(root).name} {workload:<20} {name:<12} {median:12.6f} {unit:<3} "
                  f"q1 {q1:.6f} q3 {q3:.6f} spread {spread:.4f} bound {bounds[name]}{flag}")


if __name__ == "__main__":
    main()
