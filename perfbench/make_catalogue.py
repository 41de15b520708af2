#!/usr/bin/env python3
"""Build the benchmark's base inputs and their known answers.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_catalogue.py

It writes perfbench/catalogue/{cohomology,lifting,operators,ladder}.json.
Every answer is what the library's CLI prints for the base input; the run
harness relabels the inputs per job and compares only answers that do not
depend on element names or on a choice of basis.  Where the exhaustive
oracles in tests/oracles.py are cheap, the answers are cross-checked
against them and the entry is marked ``"oracle": true``.  The output is
deterministic.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from rrbgroups import (  # noqa: E402
    RRBIdeal,
    RRBModule,
    cyclic_group,
    direct_product,
    quotient_rrb,
    restrict,
    subgroup_closure,
    trivial_action,
    trivial_rrb,
    validate_extension,
    validate_rrb,
)
from rrbgroups.extensions import extract_module  # noqa: E402
from rrbgroups.groups import FiniteGroup, group_from_permutations  # noqa: E402
from rrbgroups.serialize import (  # noqa: E402
    extension_to_json,
    group_to_json,
    module_to_json,
    rrb_to_json,
)

import oracles  # noqa: E402
from jobs import ENUMERATE_BUDGET, ladder_module  # noqa: E402
from runner import run_job  # noqa: E402

OUT = HERE / "catalogue"
# Exhaustive cross-checks run only below these search-space sizes.
ORACLE_C2_LIMIT = 2 ** 16
ORACLE_OPERATOR_LIMIT = 2 ** 16
# The ladder answers are recorded up to this n (n = 6 takes about a minute).
LADDER_RECORDED = 6


def cli_answer(argv_tail, payload_files, limit_s=600.0):
    """Run one CLI job on freshly written files; return (exit code, JSON)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate(payload_files):
            path = os.path.join(tmp, f"in{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            paths.append(path)
        out = os.path.join(tmp, "out.json")
        res = run_job([argv_tail[0], *paths, *argv_tail[1:], "--format", "json"], out, limit_s)
        if res.killed:
            raise RuntimeError(f"{argv_tail} did not finish in {limit_s} s")
        with open(out, encoding="utf-8") as fh:
            return res.exit_code, json.load(fh)


# -- groups -------------------------------------------------------------------

Z1, Z2, Z3, Z4, Z8, Z9 = (cyclic_group(n) for n in (1, 2, 3, 4, 8, 9))
V4 = direct_product(Z2, Z2).group
V4.name = "Z2^2"
Z2_3 = direct_product(V4, Z2).group
Z2_4 = direct_product(V4, V4).group
Z4Z2 = direct_product(Z4, Z2).group
Z4Z4 = direct_product(Z4, Z4).group
S3 = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
D4 = group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]], name="D4")
Q8 = group_from_permutations(8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]], name="Q8")
A4 = group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]], name="A4")
D6 = group_from_permutations(6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], name="D6")
D8 = group_from_permutations(8, [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]], name="D8")
S4 = group_from_permutations(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")
Z2_6 = direct_product(Z2_3, Z2_3).group
Z4_3 = direct_product(Z4Z4, Z4).group


def dihedral(n):
    """The dihedral group of order 2n, as symmetries of an n-gon."""
    return group_from_permutations(n, [[(i + 1) % n for i in range(n)],
                                       [(-i) % n for i in range(n)]], name=f"D{n}")


D16, D18, D20, D22 = (dihedral(n) for n in (16, 18, 20, 22))
Z2_5 = direct_product(Z2_4, Z2).group
Z4Z4_INVERSE = [(-x) % 4 * 4 + (-y) % 4 for x in range(4) for y in range(4)]
GROUPS = {"Z1": Z1, "Z2": Z2, "Z3": Z3, "Z4": Z4, "Z2^2": V4}


def ideal_extension(total, K, L):
    kernel, incl = restrict(total, K, L)
    quot = quotient_rrb(total, RRBIdeal(tuple(K), tuple(L)))
    return validate_extension(kernel, total, quot.rrb, incl, quot.projection)


def conjugation(H, gens):
    """(G, phi): the subgroup generated by gens acting on H by conjugation."""
    elems = subgroup_closure(H, gens)
    index = {x: i for i, x in enumerate(elems)}
    G = FiniteGroup([[index[H.mul(a, b)] for b in elems] for a in elems])
    phi = [[H.mul(H.mul(g, h), H.inv(g)) for h in H.elements()] for g in elems]
    return G, phi


def trivial_phi(H, G):
    return [list(range(H.order)) for _ in G.elements()]


# -- cohomology ---------------------------------------------------------------

def trivial_module(a, b, k, l):
    quot = trivial_rrb(GROUPS[a], GROUPS[b])
    kern = trivial_rrb(GROUPS[k], GROUPS[l])
    return RRBModule(quot, kern, trivial_action(quot, kern))


def extracted_modules():
    """Nontrivial actions, extracted from small ideal extensions."""
    inv4 = [0, 3, 2, 1]
    inv3 = [0, 2, 1]
    out = {}
    tot = validate_rrb(Z4, Z2, [[0, 1, 2, 3], inv4], [0, 0, 0, 0])
    out["z4_carry"] = ideal_extension(tot, [0, 2], [0])
    out["z9"] = ideal_extension(trivial_rrb(Z9, Z1), subgroup_closure(Z9, [3]), [0])
    rot = next(x for x in S3.elements() if S3.element_order(x) == 3)
    out["s3"] = ideal_extension(trivial_rrb(S3, Z1), subgroup_closure(S3, [rot]), [0])
    tot = validate_rrb(Z3, Z4, [[0, 1, 2], inv3, [0, 1, 2], inv3], [0, 0, 0])
    out["z3_z4_twist"] = ideal_extension(tot, [0, 1, 2], [0, 2])
    tot = trivial_rrb(Z2, Z4, R=[0, 2])
    out["z2_z4_kernel"] = ideal_extension(tot, [0, 1], [0, 2])
    out["z4_z4_diag"] = ideal_extension(trivial_rrb(Z4, Z4, R=[0, 1, 2, 3]), [0, 2], [0, 2])
    times4 = [(4 * x) % 9 for x in range(9)]
    times7 = [(7 * x) % 9 for x in range(9)]
    tot = validate_rrb(Z9, Z3, [list(range(9)), times4, times7], [0] * 9)
    out["z9_mul4"] = ideal_extension(tot, [0, 3, 6], [0, 1, 2])
    phi_v4 = [[0, 1, 2, 3], inv4, [0, 1, 2, 3], inv4]
    tot = validate_rrb(Z4, V4, phi_v4, [0] * 4)
    out["z4_klein_f"] = ideal_extension(tot, [0, 2], [0, 1])
    return {name: extract_module(ext) for name, ext in out.items()}


# (A, B, K, L, also run with --reps?) with trivial action and R = S = 0.  The
# mix is chosen by cost so that the median and the 90th percentile of a
# round's job times fall inside clusters of similar jobs, not in a gap.
TRIVIAL_MODULES = [
    # about 0.03 s per job
    ("Z2", "Z2", "Z2", "Z2", False),
    ("Z2", "Z1", "Z2^2", "Z2^2", False),
    ("Z3", "Z2", "Z3", "Z3", False),
    # about 0.1 s
    ("Z3", "Z3", "Z3", "Z3", True),
    ("Z4", "Z1", "Z4", "Z4", True),
    ("Z2", "Z4", "Z4", "Z4", True),
    ("Z4", "Z2", "Z4", "Z4", True),
    ("Z2^2", "Z2", "Z2", "Z2", False),
    # about 0.3 s
    ("Z3", "Z3", "Z2^2", "Z3", True),
    ("Z4", "Z3", "Z3", "Z3", True),
    # about 0.5 s
    ("Z4", "Z2", "Z2^2", "Z2", True),
    ("Z4", "Z3", "Z4", "Z2^2", True),
    ("Z2^2", "Z3", "Z2", "Z2^2", True),
    ("Z2", "Z2^2", "Z2^2", "Z2^2", False),
]
# Extracted modules (about 0.03 s) that also run with --reps.
EXTRACTED_REPS = ("z4_carry", "z3_z4_twist", "z4_klein_f")


def cohomology_catalogue():
    modules = []
    for a, b, k, l, reps in TRIVIAL_MODULES:
        modules.append((f"triv_{a}_{b}_{k}_{l}", trivial_module(a, b, k, l), reps))
    parity = validate_rrb(Z4, Z2, [[0, 1, 2, 3], [0, 3, 2, 1]], [0, 1, 0, 1])
    kern = trivial_rrb(Z2, Z2, R=[0, 1])
    modules.append(("parity_Z4_Z2", RRBModule(parity, kern, trivial_action(parity, kern)), True))
    for name, module in extracted_modules().items():
        modules.append(("from_" + name, module, name in EXTRACTED_REPS))

    cases = []
    for name, module, reps in modules:
        payload = module_to_json(module)
        code, out = cli_answer(["cohomology"], [payload])
        assert code == 0, name
        answer = {key: out[key] for key in ("z1", "z2", "b2", "h2", "orders")}
        checked = False
        if oracles.c2_size(module) <= ORACLE_C2_LIMIT:
            z2 = oracles.exhaustive_z2_keys(module)
            b2 = oracles.exhaustive_b2_keys(module)
            z1 = oracles.exhaustive_z1(module)
            orders = answer["orders"]
            if (len(z2), len(b2), len(z1)) != (orders["z2"], orders["b2"], orders["z1"]):
                raise SystemExit(f"{name}: library and exhaustive oracle disagree")
            checked = True
        cases.append({"name": name, "module": payload, "reps": reps,
                      "answer": answer, "oracle": checked})
        print(f"cohomology {name}: h2 {answer['h2']} oracle={checked}", flush=True)
    return {"cases": cases}


def ladder_catalogue():
    answers = {}
    for n in range(2, LADDER_RECORDED + 1):
        code, out = cli_answer(["cohomology"], [ladder_module(n)])
        assert code == 0
        answers[str(n)] = {key: out[key] for key in ("z1", "z2", "b2", "h2", "orders")}
        print(f"ladder n={n}: h2 {out['h2']}", flush=True)
    return {"answers": answers}


# -- lifting ------------------------------------------------------------------

# (name, H, G, K elements, L elements), all with trivial action and R = 0.
LIFTING_EXTENSIONS = [
    ("Z2^3xZ2^2_K4_L2", Z2_3, V4, [0, 1, 2, 3], [0, 1]),
    ("Z2^3xZ2^2_K4_Lall", Z2_3, V4, [0, 1, 2, 3], [0, 1, 2, 3]),
    ("Z2^3xZ4_K4_Lall", Z2_3, Z4, [0, 2, 4, 6], [0, 1, 2, 3]),
    ("Z4xZ2xZ2^2_K4_Lall", Z4Z2, V4, [0, 1, 4, 5], [0, 1, 2, 3]),
    ("Z4xZ2xZ4_K4_Lall", Z4Z2, Z4, [0, 1, 4, 5], [0, 1, 2, 3]),
    ("Q8xZ2^2_K4_Lall", Q8, V4, [0, 1, 2, 3], [0, 1, 2, 3]),
    ("D4xZ2^2_K4_Lall", D4, V4, [0, 1, 4, 5], [0, 1, 2, 3]),
    ("D4xZ2_K4_L2", D4, Z2, [0, 1, 4, 5], [0, 1]),
    ("Z8xZ2^2_K4_Lall", Z8, V4, [0, 2, 4, 6], [0, 1, 2, 3]),
    ("Z4xZ2^2_K2_Lall", Z4, V4, [0, 2], [0, 1, 2, 3]),
]
# Inducible jobs per extension.  Cheap (about 0.02 s), they make up most of
# a round: with 60 jobs in a round the 90th percentile is the fourth of the
# ten wells jobs by cost, the middle one of three that cost about the same,
# not the edge of a gap between wells jobs.
INDUCIBLE_PER_EXTENSION = 5


def spread_pick(items, count):
    """``count`` items spread evenly over the list (deterministic)."""
    if count >= len(items):
        return list(range(len(items)))
    step = len(items) / count
    return sorted({int(i * step) for i in range(count)})


def lifting_catalogue():
    exts = []
    n_inducible = INDUCIBLE_PER_EXTENSION
    for name, H, G, K, L in LIFTING_EXTENSIONS:
        ext = ideal_extension(trivial_rrb(H, G), K, L)
        payload = extension_to_json(ext)
        code, out = cli_answer(["wells"], [payload])
        assert code == 0, name
        pairs = [{"psi": p["psi"], "theta": p["theta"], "in_C": p["in_C"],
                  "inducible": p["inducible"]} for p in out["pairs"]]
        # Inducible jobs: prefer one pair of each verdict, then spread.
        order = sorted(range(len(pairs)),
                       key=lambda i: (pairs[i]["in_C"], pairs[i]["inducible"]))
        by_kind = {}
        for i in order:
            by_kind.setdefault((pairs[i]["in_C"], pairs[i]["inducible"]), i)
        chosen = list(by_kind.values())[:n_inducible]
        for i in spread_pick(list(range(len(pairs))), n_inducible):
            if len(chosen) < n_inducible and i not in chosen:
                chosen.append(i)
        exts.append({"name": name, "extension": payload, "pairs": pairs,
                     "exactness": out["exactness"],
                     "omega_is_homomorphism": out["omega_is_homomorphism"],
                     "inducible_jobs": sorted(chosen)})
        kinds = sorted({(p["in_C"], p["inducible"]) for p in pairs})
        print(f"lifting {name}: {len(pairs)} pairs, kinds {kinds}", flush=True)
    return {"extensions": exts}


# -- operators ----------------------------------------------------------------

def enumerate_cases():
    out = []
    for name, H, G, phi in [
        ("Z2^4_Z2_triv", Z2_4, Z2, trivial_phi(Z2_4, Z2)),
        ("Z2^4_Z4_triv", Z2_4, Z4, trivial_phi(Z2_4, Z4)),
        ("Z4xZ4_Z2^2_triv", Z4Z4, V4, trivial_phi(Z4Z4, V4)),
        ("Z4xZ4_Z4_triv", Z4Z4, Z4, trivial_phi(Z4Z4, Z4)),
        ("Z2^3_Z2^2_triv", Z2_3, V4, trivial_phi(Z2_3, V4)),
        ("D6_Z2^2_triv", D6, V4, trivial_phi(D6, V4)),
        ("A4_Z3_triv", A4, Z3, trivial_phi(A4, Z3)),
        ("D4_Z2^2_triv", D4, V4, trivial_phi(D4, V4)),
        ("D4_conj_Z4", D4, *conjugation(D4, [3])),
        ("A4_conj_Z3", A4, *conjugation(A4, [1])),
        ("S3_conj_Z3", S3, *conjugation(S3, [3])),
        ("D8_conj_Z2", D8, *conjugation(D8, [8])),
        ("Z4xZ4_Z2_inv", Z4Z4, Z2, [list(range(16)), Z4Z4_INVERSE]),
    ]:
        out.append((name, group_to_json(H), group_to_json(G), phi, H, G))
    return out


def corrupt_group(G, i, j, k):
    """Swap two entries of row i: the table stops being a Latin square."""
    table = G.table.tolist()
    table[i][j], table[i][k] = table[i][k], table[i][j]
    return {"name": G.name, "order": G.order, "table": table}


def validate_payloads():
    z4_inv = [list(range(16)), Z4Z4_INVERSE]
    inv_z4z4 = validate_rrb(Z4Z4, Z2, z4_inv, [0] * 16, name="Z4xZ4-inv")
    ops_z2_6 = trivial_rrb(Z2_6, Z2, R=[x % 2 for x in range(64)], name="Z2^6-par")
    d16_struct = trivial_rrb(D16, Z1, name="D16")
    mod_quot = trivial_rrb(Z4Z4, Z2, R=[(x % 4) % 2 for x in range(16)])
    mod_kern = trivial_rrb(V4, Z2, R=[0, 1, 0, 1])
    module = RRBModule(mod_quot, mod_kern, trivial_action(mod_quot, mod_kern))
    ext32 = ideal_extension(trivial_rrb(Z4_3, Z2), subgroup_closure(Z4_3, [1, 4]), [0])
    ext16 = ideal_extension(inv_z4z4, [0, 2, 8, 10], [0])

    bad_struct = rrb_to_json(inv_z4z4)
    bad_struct["R"] = [0] * 15 + [1]
    bad_phi = rrb_to_json(ops_z2_6)
    bad_phi["phi"][1] = [0, 2, 1] + list(range(3, 64))
    bad_module = module_to_json(module)
    bad_module["mu"][1] = [0, 2, 1, 3]
    bad_ext = extension_to_json(ext16)
    bad_ext["incl"]["psi"] = [0, 0, 0, 0]
    return [
        ("group_Z2^6", group_to_json(Z2_6)),
        ("group_Z4^3", group_to_json(Z4_3)),
        ("group_D16", group_to_json(D16)),
        ("group_S4", group_to_json(S4)),
        ("group_D18", group_to_json(D18)),
        ("group_D20", group_to_json(D20)),
        ("group_D22", group_to_json(D22)),
        ("group_Z2^5", group_to_json(Z2_5)),
        ("group_Z4^3_broken", corrupt_group(Z4_3, 5, 7, 9)),
        ("group_D16_broken", corrupt_group(D16, 3, 1, 2)),
        ("structure_Z4xZ4_inv", rrb_to_json(inv_z4z4)),
        ("structure_Z2^6_parity", rrb_to_json(ops_z2_6)),
        ("structure_D16", rrb_to_json(d16_struct)),
        ("structure_Z2^5_Z2", rrb_to_json(trivial_rrb(Z2_5, Z2))),
        ("structure_Z4xZ4_broken_R", bad_struct),
        ("structure_Z2^6_broken_phi", bad_phi),
        ("module_Z4xZ4", module_to_json(module)),
        ("module_Z4xZ4_broken", bad_module),
        ("extension_Z4^3", extension_to_json(ext32)),
        ("extension_Z4xZ4_inv", extension_to_json(ext16)),
        ("extension_Z4xZ4_broken", bad_ext),
    ]


def operators_catalogue():
    enum = []
    for name, Hj, Gj, phi, H, G in enumerate_cases():
        code, out = cli_answer(["enumerate", "--budget", str(ENUMERATE_BUDGET)], [Hj, Gj, phi])
        assert code == 0, name
        checked = False
        if G.order ** (H.order - 1) <= ORACLE_OPERATOR_LIMIT:
            if oracles.naive_operators(H, G, phi) != out["operators"]:
                raise SystemExit(f"{name}: library and exhaustive oracle disagree")
            checked = True
        enum.append({"name": name, "H": Hj, "G": Gj, "phi": phi,
                     "operators": out["operators"], "oracle": checked})
        print(f"enumerate {name}: {out['count']} operators oracle={checked}", flush=True)
    val = []
    for name, payload in validate_payloads():
        code, out = cli_answer(["validate"], [payload])
        assert code in (0, 2), name
        val.append({"name": name, "payload": payload, "exit": code,
                    "kind": out["kind"], "valid": out["valid"], "code": out.get("code")})
        print(f"validate {name}: {out['kind']} valid={out['valid']} {out.get('code')}", flush=True)
    return {"enumerate": enum, "validate": val}


def main() -> None:
    OUT.mkdir(exist_ok=True)
    parts = {"cohomology": cohomology_catalogue, "lifting": lifting_catalogue,
             "operators": operators_catalogue, "ladder": ladder_catalogue}
    wanted = sys.argv[1:] or list(parts)
    for name in wanted:
        data = parts[name]()
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
