"""Seeded job generation for the three workloads.

A workload is a list of job templates taken from its catalogue file.  Each
round runs every template once, in an order drawn from the seed, and every
job gets its own random relabeling of all group elements, so the same seed
always writes the same files and different seeds write different but
isomorphic inputs with the same known answers.  Whole rounds keep the mix
of cheap and expensive jobs the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Dict, List, NamedTuple

import relabel

CATALOGUE = Path(__file__).resolve().parent / "catalogue"
WORKLOADS = ("cohomology", "lifting", "operators")
# Axiom evaluations an enumerate job may spend.  It is passed on the command
# line so that RRB_BUDGET in the caller's environment cannot change the
# workload.  It is ten times the CLI's default, so a relabeling that orders
# the search badly runs into the job time limit rather than the budget.
ENUMERATE_BUDGET = 10 ** 7


class Job(NamedTuple):
    id: str
    kind: str      # cohomology, cohomology_reps, wells, inducible, enumerate, validate
    case: int      # index into the catalogue list the kind draws from
    sub: int       # pair index for inducible jobs, else 0
    perms: Dict[str, List[int]]
    inputs: Dict[str, str]  # role -> path of a written input file
    argv: List[str]
    out: str


def load_catalogue(name: str) -> dict:
    with open(CATALOGUE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def templates(workload: str, cat: dict) -> List[tuple]:
    """(kind, case, sub) for every job of one round."""
    if workload == "cohomology":
        out = []
        for i, case in enumerate(cat["cases"]):
            out.append(("cohomology", i, 0))
            if case["reps"]:
                out.append(("cohomology_reps", i, 0))
        return out
    if workload == "lifting":
        out = []
        for i, ext in enumerate(cat["extensions"]):
            out.append(("wells", i, 0))
            out += [("inducible", i, j) for j in ext["inducible_jobs"]]
        return out
    if workload == "operators":
        return ([("enumerate", i, 0) for i in range(len(cat["enumerate"]))]
                + [("validate", i, 0) for i in range(len(cat["validate"]))])
    raise ValueError(f"unknown workload {workload!r}")


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
    return path


def _validate_payload(entry: dict, rng: random.Random):
    """Relabel a validate payload of any kind; returns (payload, perms)."""
    payload = entry["payload"]
    kind = entry["kind"]
    if kind == "group":
        perms = {"G": relabel.random_perm(len(payload["table"]), rng)}
        return relabel.group(payload, perms["G"]), perms
    if kind == "structure":
        perms = relabel.structure_perms(payload, rng)
        return relabel.structure(payload, perms["H"], perms["G"]), perms
    if kind == "module":
        perms = relabel.module_perms(payload, rng)
        return relabel.module(payload, perms), perms
    perms = relabel.extension_perms(payload, rng)
    return relabel.extension(payload, perms), perms


def make_job(workload: str, cat: dict, template: tuple, job_id: str,
             folder: str, rng: random.Random) -> Job:
    kind, case, sub = template
    base = os.path.join(folder, job_id)
    fmt = ["--format", "json"]
    if kind in ("cohomology", "cohomology_reps"):
        entry = cat["cases"][case]
        perms = relabel.module_perms(entry["module"], rng)
        inputs = {"module": _write(base + "_module.json",
                                   relabel.module(entry["module"], perms))}
        argv = ["cohomology", inputs["module"], *fmt]
        if kind == "cohomology_reps":
            argv.append("--reps")
    elif kind in ("wells", "inducible"):
        entry = cat["extensions"][case]
        perms = relabel.extension_perms(entry["extension"], rng)
        inputs = {"extension": _write(base + "_ext.json",
                                      relabel.extension(entry["extension"], perms))}
        if kind == "wells":
            argv = ["wells", inputs["extension"], *fmt]
        else:
            inputs["pair"] = _write(base + "_pair.json",
                                    relabel.pair(entry["pairs"][sub], perms))
            argv = ["inducible", inputs["extension"], inputs["pair"], *fmt]
    elif kind == "enumerate":
        entry = cat["enumerate"][case]
        perms = {"H": relabel.random_perm(len(entry["H"]["table"]), rng),
                 "G": relabel.random_perm(len(entry["G"]["table"]), rng)}
        inputs = {
            "H": _write(base + "_H.json", relabel.group(entry["H"], perms["H"])),
            "G": _write(base + "_G.json", relabel.group(entry["G"], perms["G"])),
            "phi": _write(base + "_phi.json", relabel.push_table(
                entry["phi"], perms["G"], perms["H"], perms["H"])),
        }
        argv = ["enumerate", inputs["H"], inputs["G"], inputs["phi"],
                "--budget", str(ENUMERATE_BUDGET), *fmt]
    elif kind == "validate":
        payload, perms = _validate_payload(cat["validate"][case], rng)
        inputs = {"payload": _write(base + "_payload.json", payload)}
        argv = ["validate", inputs["payload"], *fmt]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return Job(job_id, kind, case, sub, perms, inputs, argv, base + ".out")


def make_round(workload: str, cat: dict, seed: int, round_no: int, work: str) -> List[Job]:
    """Write the input files of one round and return its jobs in run order."""
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    folder = os.path.join(work, f"r{round_no:03d}")
    os.makedirs(folder, exist_ok=True)
    order = templates(workload, cat)
    rng.shuffle(order)
    return [make_job(workload, cat, t, f"j{i:03d}", folder, rng)
            for i, t in enumerate(order)]


# -- the h2 ladder ------------------------------------------------------------

def _cyclic(n: int) -> dict:
    return {"name": f"Z{n}", "order": n,
            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


def _trivial_structure(nH: int, nG: int) -> dict:
    return {"H": _cyclic(nH), "G": _cyclic(nG),
            "phi": [list(range(nH)) for _ in range(nG)], "R": [0] * nH}


def ladder_module(n: int) -> dict:
    """The all-trivial module with A = B = Z_n and K = L = Z_2."""
    ident = [0, 1]
    return {"quotient": _trivial_structure(n, n), "kernel": _trivial_structure(2, 2),
            "nu": [ident] * n, "mu": [ident] * n, "sigma": [ident] * n,
            "f": [[0] * n, [0] * n]}
