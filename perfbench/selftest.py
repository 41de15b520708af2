#!/usr/bin/env python3
"""Self-test of the benchmark's generator, checker and time limit.

Run from the repository root:

    python3 perfbench/selftest.py

It shows that
  1. one seed always writes byte-identical job files, and another seed
     writes different ones;
  2. the checker accepts a real output of every job kind and rejects a
     deliberately corrupted one, and the benchmark's failure count (the
     numerator of fail_ratio) counts each rejection;
  3. a job that runs past its time limit is killed and counted as failed.
It exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from check import check_job  # noqa: E402
from jobs import WORKLOADS, load_catalogue, make_round  # noqa: E402
from run import JOB_LIMIT_S, check_all  # noqa: E402
from runner import run_job  # noqa: E402

WORK = ROOT / ".perfbench" / "selftest"


def _edit_json(path, change, job):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    change(obj, job)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _flip_first_inducible(obj, job):
    pair = next(p for p in obj["pairs"] if p["in_C"])
    pair["inducible"] = not pair["inducible"]


def _drop_operator(obj, job):
    obj["operators"] = obj["operators"][1:]
    obj["count"] = len(obj["operators"])


def _shift_operator(obj, job):
    op = obj["operators"][-1]
    op[-1] = (op[-1] + 1) % (max(op) + 2)


def _break_representative(obj, job):
    """Change one entry of a class representative so it is no cocycle.

    The exhaustive oracle picks the entry, because some single-entry
    changes of a cocycle are cocycles again.
    """
    from rrbgroups import serialize
    from check import load_oracles, read_json

    module = serialize.load_module(read_json(job.inputs["module"]))
    sizes = {"tau1": module.K.order, "rho": module.K.order,
             "tau2": module.L.order, "chi": module.L.order}
    rep = obj["witnesses"][-1]["representative"]
    for block, size in sizes.items():
        for i in range(len(rep[block])):
            rep[block][i] = (rep[block][i] + 1) % size
            fs = serialize.load_factor_system(rep, module)
            if load_oracles().cocycle_violations(module, fs):
                return
            rep[block][i] = (rep[block][i] - 1) % size
    raise AssertionError("every single-entry change is a cocycle")


# job kind -> named corruptions of its JSON output, as f(output, job)
CORRUPTIONS = {
    "cohomology": {"wrong h2": lambda o, j: o["h2"].append(2)},
    "cohomology_reps": {"missing class representative": lambda o, j: o["witnesses"].pop(),
                        "representative not a cocycle": _break_representative},
    "wells": {"flipped pair verdict": _flip_first_inducible,
              "exactness flag false": lambda o, j: o["exactness"].update(
                  {next(iter(o["exactness"])): False})},
    "inducible": {"flipped verdict": lambda o, j: o.update(inducible=not o["inducible"]),
                  "deciders disagree": lambda o, j: o.update(deciders_agree=False)},
    "enumerate": {"missing operator": _drop_operator,
                  "operator changed": _shift_operator},
    "validate": {"flipped verdict": lambda o, j: o.update(valid=not o["valid"]),
                 "wrong error code": lambda o, j: o.update(code="NotAnAxiom")},
}


def check_determinism(workload: str) -> bool:
    cat = load_catalogue(workload)
    dirs = [WORK / f"{workload}-{tag}" for tag in ("a", "b", "c")]
    for folder, seed in zip(dirs, (7, 7, 8)):
        for r in range(2):
            make_round(workload, cat, seed, r, str(folder))
    same = _tree_equal(dirs[0], dirs[1])
    differs = not _tree_equal(dirs[0], dirs[2])
    print(f"{'PASS' if same and differs else 'FAIL'} {workload}: seed 7 twice gives "
          f"identical files ({same}); seed 8 gives other files ({differs})")
    return same and differs


def _tree_equal(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    for sub in cmp.common_dirs:
        if not _tree_equal(a / sub, b / sub):
            return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def check_corruptions(workload: str) -> bool:
    cat = load_catalogue(workload)
    jobs = make_round(workload, cat, 1, 0, str(WORK / f"{workload}-run"))
    ok = True
    for kind in sorted({job.kind for job in jobs}):
        job = next(j for j in jobs if j.kind == kind)
        result = run_job(job.argv, job.out, JOB_LIMIT_S)
        clean = check_job(job, result, cat)
        if clean:
            print(f"FAIL {kind}: the real output is rejected: {clean}")
            ok = False
            continue
        shutil.copyfile(job.out, job.out + ".orig")
        for name, change in CORRUPTIONS[kind].items():
            shutil.copyfile(job.out + ".orig", job.out)
            _edit_json(job.out, change, job)
            failed = check_all([job], [result], cat)
            print(f"{'PASS' if failed == 1 else 'FAIL'} {kind}: {name} counts as "
                  f"{failed} failed job of 1")
            ok = ok and failed == 1
        shutil.copyfile(job.out + ".orig", job.out)
    return ok


def check_time_limit() -> bool:
    cat = load_catalogue("cohomology")
    jobs = make_round("cohomology", cat, 1, 0, str(WORK / "limit"))
    job = next(j for j in jobs if cat["cases"][j.case]["name"] == "triv_Z4_Z2_Z2^2_Z2")
    result = run_job(job.argv, job.out, 0.05)
    failed = check_all([job], [result], cat)
    ok = result.killed and failed == 1
    print(f"{'PASS' if ok else 'FAIL'} time limit: a {job.kind} job given 0.05 s was "
          f"killed ({result.killed}) after {result.latency_s:.3f} s and counted as failed")
    return ok


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = [check_determinism(w) for w in WORKLOADS]
    results += [check_corruptions(w) for w in WORKLOADS]
    results.append(check_time_limit())
    print("selftest:", "all checks hold" if all(results) else "SOME CHECKS FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
