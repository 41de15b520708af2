"""Semantic output checker: compares each job's CLI output with the known
answer in the catalogue, transported along the job's relabeling.

Only answers that do not depend on element names or on the choice of a
basis are compared: invariant factors and orders, verdicts, error codes and
operator sets.  Raw omega or class coordinates are never compared, because a
correct solver may pick another basis.  Class representatives are checked
with the exhaustive cocycle oracle of tests/oracles.py, and enumerated
operators are re-validated by the library's structure constructor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import relabel
from runner import JobResult

ROOT = Path(__file__).resolve().parent.parent
EXIT_OK = 0


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def load_oracles():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


def _is_zero(coords) -> bool:
    return all(int(c) == 0 for c in coords)


def _cohomology_groups(out: dict, answer: dict) -> Optional[str]:
    for key in ("z1", "z2", "b2", "h2"):
        if out.get(key) != answer[key]:
            return f"{key} factors {out.get(key)} != {answer[key]}"
    if out.get("orders") != answer["orders"]:
        return f"orders {out.get('orders')} != {answer['orders']}"
    return None


def check_cohomology(job, out: dict, cat: dict) -> Optional[str]:
    answer = cat["cases"][job.case]["answer"]
    wrong = _cohomology_groups(out, answer)
    if wrong or job.kind != "cohomology_reps":
        return wrong
    reps = out.get("witnesses")
    if not isinstance(reps, list) or len(reps) != answer["orders"]["h2"]:
        return "number of class representatives != |H2|"
    if len({tuple(r["class"]) for r in reps}) != len(reps):
        return "class representatives repeat a class"
    from rrbgroups import serialize
    oracles = load_oracles()
    module = serialize.load_module(read_json(job.inputs["module"]))
    for rep in reps:
        fs = serialize.load_factor_system(rep["representative"], module)
        bad = oracles.cocycle_violations(module, fs)
        if bad:
            return f"representative of class {rep['class']} violates {bad[0]}"
    return None


def _omega_matches(in_c: bool, omega, inducible: bool) -> bool:
    """omega is set exactly on compatible pairs and zero exactly when inducible."""
    if not in_c:
        return omega is None and not inducible
    return isinstance(omega, list) and _is_zero(omega) == inducible


def check_wells(job, out: dict, cat: dict) -> Optional[str]:
    entry = cat["extensions"][job.case]
    expected = {relabel.pair_key(p): (p["in_C"], p["inducible"])
                for p in entry["pairs"]}
    got = {}
    for p in out.get("pairs", []):
        if not _omega_matches(p["in_C"], p["omega"], p["inducible"]):
            return "omega is not zero exactly on the inducible compatible pairs"
        got[relabel.pair_key_in_base(p, job.perms)] = (p["in_C"], p["inducible"])
    if got != expected:
        return "pair verdicts differ from the known answer"
    if out.get("exactness") != entry["exactness"] or not all(entry["exactness"].values()):
        return f"exactness flags {out.get('exactness')}"
    if out.get("omega_is_homomorphism") != entry["omega_is_homomorphism"]:
        return "omega_is_homomorphism differs"
    return None


def check_inducible(job, out: dict, cat: dict) -> Optional[str]:
    pair = cat["extensions"][job.case]["pairs"][job.sub]
    if out.get("in_C") != pair["in_C"] or out.get("inducible") != pair["inducible"]:
        return f"verdict in_C={out.get('in_C')} inducible={out.get('inducible')}"
    if out.get("deciders_agree") is not True or \
            out.get("inducible_by_module_criterion") != pair["inducible"]:
        return "the two inducibility deciders disagree"
    if not _omega_matches(pair["in_C"], out.get("omega"), pair["inducible"]):
        return "omega does not match the verdict"
    if (out.get("witness") is not None) != pair["inducible"]:
        return "lifting witness present iff inducible fails"
    return None


def check_enumerate(job, out: dict, cat: dict) -> Optional[str]:
    entry = cat["enumerate"][job.case]
    pH, pG = job.perms["H"], job.perms["G"]
    expected = sorted(relabel.push_map(R, pH, pG) for R in entry["operators"])
    ops = out.get("operators")
    if not isinstance(ops, list) or out.get("count") != len(ops):
        return "operator count does not match the list"
    if sorted(ops) != expected:
        return f"operator set differs ({len(ops)} found, {len(expected)} known)"
    from rrbgroups import serialize
    from rrbgroups.rrb import RRBError, RRBGroup
    H = serialize.load_group(read_json(job.inputs["H"]))
    G = serialize.load_group(read_json(job.inputs["G"]))
    phi = read_json(job.inputs["phi"])
    for R in ops:
        try:
            RRBGroup(H, G, phi, R)
        except RRBError as exc:
            return f"operator {R} fails validation: {exc}"
    return None


def check_validate(job, out: dict, cat: dict) -> Optional[str]:
    entry = cat["validate"][job.case]
    got = (out.get("kind"), out.get("valid"), out.get("code"))
    want = (entry["kind"], entry["valid"], entry["code"])
    return None if got == want else f"verdict {got} != {want}"


CHECKS = {"cohomology": check_cohomology, "cohomology_reps": check_cohomology,
          "wells": check_wells, "inducible": check_inducible,
          "enumerate": check_enumerate, "validate": check_validate}


def expected_exit(job, cat: dict) -> int:
    if job.kind == "validate":
        return cat["validate"][job.case]["exit"]
    return EXIT_OK


def check_job(job, result: JobResult, cat: dict) -> Optional[str]:
    """None when the job's output is correct, else the reason it is not."""
    if result.killed:
        return "killed at its time limit"
    if result.exit_code != expected_exit(job, cat):
        return f"exit code {result.exit_code}"
    out = read_json(job.out)
    if not isinstance(out, dict):
        return "output is not a JSON object"
    try:
        return CHECKS[job.kind](job, out, cat)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def check_rung(n: int, out, answers: dict) -> Optional[str]:
    """A ladder rung: the recorded answer, or the order identities beyond it.

    With K = L = Z2 the one-cochains form (Z2)^(2(n-1)), so |Z1|*|B2| must be
    4^(n-1), and |H2|*|B2| must be |Z2|.
    """
    if not isinstance(out, dict) or "orders" not in out:
        return "output is not a cohomology report"
    if str(n) in answers:
        return _cohomology_groups(out, answers[str(n)])
    o = out["orders"]
    if o["z1"] * o["b2"] != 4 ** (n - 1) or o["h2"] * o["b2"] != o["z2"]:
        return f"orders {o} break the group-order identities"
    return None
