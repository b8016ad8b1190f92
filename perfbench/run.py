#!/usr/bin/env python3
"""CLI-level benchmark of semorient: a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each job is one fresh
``python -m semorient <verb> ...`` process, started only after the previous
one has exited, because a CLI user pays interpreter start-up, imports and
every cache fill on each call. The run builds the workload's tables from the
seed and runs the whole job list in a fixed number of passes, one per
``PASS_SECONDS`` of ``--seconds`` (at least one), so that how many passes a
run makes does not depend on how fast the machine is. A do-nothing call
(``setup_s``) runs before every few jobs. After the timed passes it checks
every job's output and re-runs the small bounded jobs through the naive
oracles of ``tests/oracles.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` half of the passes (at least one) are traced, each after an
untraced one: the traced jobs run through ``tracer.py``, their stdout must
match the untraced bytes, and the last line reports the per-layer metrics.
``--record`` rewrites this workload's entry in ``expected.json`` from one
pass at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
SETUP_EVERY = 8
# nominal length of one pass of either workload on a 2-core machine
PASS_SECONDS = 24
END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


class Runner:
    """Spawns jobs in one working directory, one at a time."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv):
        """Run one process to completion: (seconds, exit code, max RSS in MB, stdout, stderr)."""
        out_path, err_path = self.work / "job.out", self.work / "job.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (seconds, proc.returncode, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())

    def run_pass(self, jobs, traced, idle=None):
        """Run the job list once; return (pass seconds, results).

        The pass time is the sum of the job times: ``idle`` (a do-nothing
        call, for ``setup_s``) runs between every ``SETUP_EVERY`` jobs and is
        not part of it.
        """
        results = []
        for n, job in enumerate(jobs):
            if idle and n % SETUP_EVERY == 0:
                idle()
            if traced:
                spans = self.work / f"spans-{n}.json"
                argv = [str(HERE / "tracer.py"), str(spans), job["id"], "--", *job["argv"]]
            else:
                argv = ["-m", "semorient", *job["argv"]]
            results.append((job, *self.spawn(argv)))
        if traced:
            results = [
                r + (json.loads((self.work / f"spans-{n}.json").read_text()),)
                for n, r in enumerate(results)
            ]
        return sum(r[1] for r in results), results


def preflight(runner):
    """Refuse to run unless the checkout's own sources are what the jobs import."""
    init = ROOT / "src" / "semorient" / "__init__.py"
    _, code, _, out, err = runner.spawn(
        ["-c", "import semorient, sys; sys.stdout.write(semorient.__file__)"]
    )
    if code != 0 or Path(out.decode()).resolve() != init.resolve():
        raise SystemExit(f"error: semorient does not import from {init}: {err.decode()[-300:]}")


class SetupTimer:
    """Times the do-nothing call: ``check`` on a 1-element table.

    The first call, which fills the byte-code cache, is not timed. Further
    calls are spread over the whole run, so their median sees the same
    machine as the jobs.
    """

    ARGV = ["-m", "semorient", "check", "--table", "one.tbl"]

    def __init__(self, runner):
        self.runner = runner
        self.times = []
        (runner.work / "one.tbl").write_text("elements: a\ntable:\na\n")
        self.call()
        self.times.clear()

    def call(self):
        seconds, code, _, out, err = self.runner.spawn(self.ARGV)
        if code != 0 or out != b"ok: associative table of order 1\n" or err:
            raise SystemExit(f"error: the do-nothing call failed: {err.decode()[-300:]}")
        self.times.append(seconds)


def check_results(results, expected, exact_bytes, oracles):
    """The problems of each result, in order.

    Every run of a job, traced or not, must repeat the stdout bytes of its
    first run; the oracle comparison is made once per job.
    """
    first = {}
    verdicts = []
    for job, _, code, _, out, err, *_ in results:
        problems = checks.job_problems(job, code, out, err, expected.get(job["id"]), exact_bytes)
        if job["id"] not in first:
            first[job["id"]] = out
            if not problems and job["oracle"]:
                problems = checks.oracle_problems(oracles, job, out)
        elif first[job["id"]] != out:
            problems.append("stdout differs from the first run of this job")
        verdicts.append(problems)
    return verdicts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=48)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help=f"record expected.json from one pass at seed {DEFAULT_SEED}")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "semorient").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"error: {ROOT} holds no semorient sources (src/, tests/oracles.py)")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, Runner(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, runner):
    preflight(runner)
    files, jobs = workloads.build(args.workload, args.seed)
    for name, data in files.items():
        (runner.work / name).write_bytes(data)
    if args.record:
        return record(args, runner, jobs)
    setup = SetupTimer(runner)

    rounds = max(1, round(args.seconds / PASS_SECONDS))
    if args.trace:
        rounds = max(1, rounds // 2)
    walls, traced_walls, untraced, traced = [], [], [], []
    for _ in range(rounds):
        seconds, results = runner.run_pass(jobs, traced=False, idle=setup.call)
        walls.append(seconds)
        untraced += results
        if args.trace:
            seconds, results = runner.run_pass(jobs, traced=True)
            traced_walls.append(seconds)
            traced += results

    expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    oracles = checks.load_oracles(ROOT / "tests" / "oracles.py")
    results = untraced + traced
    verdicts = check_results(results, expected, args.seed == DEFAULT_SEED, oracles)
    for (job, *_), problems in zip(results, verdicts):
        if problems:
            print(f"FAIL {job['id']}: " + "; ".join(problems))
    failed = sum(1 for v in verdicts if v)
    unexpected = sum(1 for (job, *_), v in zip(results, verdicts) if v and not job["known_defect"])
    untraced_failed = sum(1 for v in verdicts[: len(untraced)] if v)

    _, p50, p75 = quartiles([r[1] for r in untraced])
    e2e = {
        "wall_s": statistics.median(walls),
        "job_p50_s": p50,
        "job_p75_s": p75,
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": max(r[3] for r in untraced),
        "ok_ratio": 1 - untraced_failed / len(untraced),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} pass(es) of "
          f"{len(jobs)} jobs, one client, closed loop; {len(untraced)} untraced job samples, "
          f"{len(untraced) // 4} above job_p75_s; setup_s is the median of {len(setup.times)} calls")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6f} {END_TO_END_UNITS[name]}")
    print(f"  fail_ratio   {untraced_failed / len(untraced):12.6f} 1 "
          f"({untraced_failed} failed of {len(untraced)} untraced jobs)")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    if args.trace:
        units = tracer.metric_units()
        passes = len(traced_walls)
        totals = tracer.aggregate([(r[1], r[6]) for r in traced])
        layer = {k: v if k.endswith("_ratio") else v / passes for k, v in totals.items()}
        layer["trace.overhead_ratio"] = statistics.median(traced_walls) / e2e["wall_s"]
        print(f"per-layer metrics per pass, mean of {passes} traced pass(es):")
        for name, value in layer.items():
            print(f"  {name:<60} {value:14.6f} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}

    result = {
        "correct": unexpected == 0,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record(args, runner, jobs):
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"error: --record needs --seed {DEFAULT_SEED}")
    _, results = runner.run_pass(jobs, traced=False)
    entry = {}
    for job, _, code, _, out, err in results:
        problems = checks.job_problems(job, code, out, err, None, False)
        if job["known_defect"]:
            continue
        if problems:
            raise SystemExit(f"error: {job['id']} breaks the contract: {problems}")
        entry[job["id"]] = {**checks.summary(code, out), "sha256": checks.digest(out)}
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[args.workload] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} jobs of {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
