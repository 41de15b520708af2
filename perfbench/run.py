#!/usr/bin/env python3
"""The rrbgroups benchmark: seeded CLI job mixes, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/design.json for why each one exists):
  cohomology  `cohomology <module>` and `cohomology <module> --reps`
  lifting     `wells <extension>` and `inducible <extension> <pair>`
  operators   `enumerate H G phi` and `validate <file>`

Each workload is a closed loop with one client: one parent process imports
the library, then forks one job process per CLI call and waits for it
before starting the next, so every job starts from the library state of a
fresh process.  Jobs run in whole rounds (every catalogue entry once, in a
seeded order, on freshly relabeled inputs) until --seconds have passed and
at least 100 jobs have run.  Every output is checked against the known
answers in perfbench/catalogue after the loop.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed job list
twice, untraced and then with spans at every layer boundary, and prints the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_LIMIT_S = 10.0       # a job still running after this is killed and fails
MIN_JOBS = 100           # p90 needs at least 10 samples beyond it
LOOP_CAP_S = 100.0       # no new round starts after this much loop time
MAX_JOBS = 2000          # nor after this many jobs: bounds the checking time
SETUP_SAMPLES = 11       # at least this many import timings per run
LADDER_LIMIT_S = 2.5     # per-rung limit of the h2_reach ladder
LADDER_MAX_N = 12


def setup_sample() -> float:
    """Seconds of `import rrbgroups` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rrbgroups; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip())


def closed_loop(workload, cat, seed, seconds, work):
    """Whole rounds until `seconds` of loop time and MIN_JOBS jobs, within
    LOOP_CAP_S and MAX_JOBS, so a run ends in time however slow or fast the
    library is.

    A set-up sample is taken before each round, outside the loop time, so
    that set-up time is sampled over the same stretch of machine time as the
    jobs; the machine's speed drifts over tens of seconds.

    Returns ([(jobs, results, wall seconds)] per round, set-up samples).
    """
    from jobs import make_round
    from runner import run_job

    rounds, setup, count, wall = [], [], 0, 0.0
    while (wall < seconds or count < MIN_JOBS) and wall < LOOP_CAP_S and count < MAX_JOBS:
        setup.append(setup_sample())
        batch = make_round(workload, cat, seed, len(rounds), work)
        start = time.perf_counter()
        results = [run_job(job.argv, job.out, JOB_LIMIT_S) for job in batch]
        took = time.perf_counter() - start
        rounds.append((batch, results, took))
        count += len(batch)
        wall += took
    return rounds, setup


def h2_ladder(work):
    """Largest n whose A=B=Z_n, K=L=Z2 rung finishes within the rung limit.

    Returns (reach, rungs attempted, wrong rungs).  A rung over the limit
    ends the climb; it is a timeout, not a failure.
    """
    from check import read_json, check_rung
    from jobs import ladder_module, load_catalogue
    from runner import run_job

    answers = load_catalogue("ladder")["answers"]
    folder = os.path.join(work, "ladder")
    os.makedirs(folder, exist_ok=True)
    reach, attempted, wrong = 1, 0, 0
    for n in range(2, LADDER_MAX_N + 1):
        path = os.path.join(folder, f"z{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ladder_module(n), fh)
        out = path + ".out"
        res = run_job(["cohomology", path, "--format", "json"], out, LADDER_LIMIT_S)
        if res.killed:
            break
        attempted += 1
        reason = None if res.exit_code == 0 else f"exit code {res.exit_code}"
        reason = reason or check_rung(n, read_json(out), answers)
        if reason:
            wrong += 1
            print(f"ladder n={n}: {reason}", file=sys.stderr)
            break
        reach = n
    return reach, attempted, wrong


def check_all(jobs, results, cat):
    from check import check_job

    failed = 0
    for job, res in zip(jobs, results):
        reason = check_job(job, res, cat)
        if reason:
            failed += 1
            print(f"FAIL {job.id} {job.kind} {job.argv[1]}: {reason}", file=sys.stderr)
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, cat, work):
    rounds, setup = closed_loop(args.workload, cat, args.seed, args.seconds, work)
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    reach, rungs, rungs_wrong = h2_ladder(work)
    failed = sum(check_all(jobs, results, cat) for jobs, results, _ in rounds)
    loop_s = sum(took for *_, took in rounds)
    results = [r for _, round_results, _ in rounds for r in round_results]
    latencies = [r.latency_s for r in results]
    attempted = len(results)
    metrics = {
        "jobs_per_s": metric((attempted - failed) / loop_s, "jobs/s"),
        "job_p50_s": metric(statistics.median(latencies), "s"),
        "job_p90_s": metric(statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        # The job mix only: the ladder's top rung depends on solver speed,
        # and h2_reach already reports it.
        "peak_rss_mb": metric(max(r.peak_rss_mb for r in results), "MB"),
        "h2_reach": metric(reach, "count"),
    }
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in {len(rounds)} "
          f"rounds, {loop_s:.2f} s, {failed} failed; "
          f"ladder {rungs} rungs, {rungs_wrong} wrong")
    print(f"fail_ratio {failed / attempted:.4f} ratio")
    return attempted + rungs, failed + rungs_wrong, metrics


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "jobs/s" if name.endswith("jobs_per_s") else "count"


def traced_run(args, cat, work):
    import tracing
    from jobs import make_round, templates
    from runner import run_job

    per_round = len(templates(args.workload, cat))
    rounds = -(-MIN_JOBS // per_round)
    jobs = [job for r in range(rounds)
            for job in make_round(args.workload, cat, args.seed, r, work)]
    # Each job runs untraced and traced back to back, so drift in machine
    # speed cancels out of the overhead; which run goes first alternates, so
    # a warm second run favours neither.  A job's output is checked before
    # the next run overwrites it.
    plain_s = traced_s = 0.0
    failed = 0
    for i, job in enumerate(jobs):
        hooks = [None, tracing.child_hook(job.id, job.out + ".spans")]
        for hook in hooks[::-1] if i % 2 else hooks:
            res = run_job(job.argv, job.out, JOB_LIMIT_S, hook)
            failed += check_all([job], [res], cat)
            if hook is None:
                plain_s += res.latency_s
            else:
                traced_s += res.latency_s
    dumps = []
    for job in jobs:
        try:
            with open(job.out + ".spans", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        except OSError:
            pass  # a killed job leaves no spans; check_all counted it
    values = tracing.layer_totals(dumps)
    values["trace.jobs_per_s"] = len(jobs) / traced_s
    values["trace.overhead_jobs_per_s"] = len(jobs) / plain_s - len(jobs) / traced_s
    metrics = {name: metric(value, _layer_unit(name)) for name, value in values.items()}
    print(f"workload {args.workload} seed {args.seed} traced: {len(jobs)} jobs, "
          f"{traced_s:.2f} s traced, {plain_s:.2f} s untraced, {failed} failed")
    return 2 * len(jobs), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cohomology", "lifting", "operators"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rrbgroups" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One job process beside this one: no BLAS worker threads either.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import rrbgroups
    if Path(rrbgroups.__file__).resolve().parent != (SRC / "rrbgroups").resolve():
        print(f"imported rrbgroups from {rrbgroups.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from jobs import load_catalogue

    cat = load_catalogue(args.workload)
    work = str(ROOT / ".perfbench" / args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics = run(args, cat, work)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
