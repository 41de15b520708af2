"""Transport CLI payloads along random relabelings of group elements.

Every group in a payload gets a permutation ``p`` of its elements with
``p[0] == 0`` (the library's identity convention), and every table, action,
operator and morphism is carried along, so the relabeled payload is
isomorphic to the original.  Answers that do not depend on element names
(invariant factors, verdicts, error codes) stay the same; answers that name
elements (operators, automorphism pairs) are mapped back with ``pull_back``.

All functions work on plain JSON values; the library is not imported.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence


def random_perm(n: int, rng: random.Random) -> List[int]:
    """A permutation of range(n) that fixes 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def inverse(p: Sequence[int]) -> List[int]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return out


def push_map(image: Sequence[int], p_dom: Sequence[int], p_cod: Sequence[int]) -> List[int]:
    """The map x -> image[x] written in the new labels."""
    out = [0] * len(image)
    for x, y in enumerate(image):
        out[p_dom[x]] = p_cod[y]
    return out


def pull_back(image: Sequence[int], p_dom: Sequence[int], p_cod: Sequence[int]) -> List[int]:
    """Inverse of ``push_map``: a map in new labels, written in the old ones."""
    inv_cod = inverse(p_cod)
    return [inv_cod[image[p_dom[x]]] for x in range(len(image))]


def push_table(table: Sequence[Sequence[int]], p_row: Sequence[int],
               p_col: Sequence[int], p_val: Sequence[int]) -> List[List[int]]:
    """A two-argument map (row, col) -> value written in the new labels."""
    out = [[0] * len(table[0]) for _ in table]
    for r, row in enumerate(table):
        for c, v in enumerate(row):
            out[p_row[r]][p_col[c]] = p_val[v]
    return out


def group(obj: dict, p: Sequence[int]) -> dict:
    out = dict(obj)
    out["table"] = push_table(obj["table"], p, p, p)
    return out


def structure(obj: dict, pH: Sequence[int], pG: Sequence[int]) -> dict:
    out = dict(obj)
    out["H"] = group(obj["H"], pH)
    out["G"] = group(obj["G"], pG)
    out["phi"] = push_table(obj["phi"], pG, pH, pH)
    out["R"] = push_map(obj["R"], pH, pG)
    return out


def structure_perms(obj: dict, rng: random.Random) -> Dict[str, List[int]]:
    return {"H": random_perm(len(obj["H"]["table"]), rng),
            "G": random_perm(len(obj["G"]["table"]), rng)}


def module(obj: dict, perms: Dict[str, List[int]]) -> dict:
    """perms holds A, B (quotient H, G) and K, L (kernel H, G)."""
    pA, pB, pK, pL = perms["A"], perms["B"], perms["K"], perms["L"]
    return {
        "quotient": structure(obj["quotient"], pA, pB),
        "kernel": structure(obj["kernel"], pK, pL),
        "nu": push_table(obj["nu"], pB, pK, pK),
        "mu": push_table(obj["mu"], pA, pK, pK),
        "sigma": push_table(obj["sigma"], pB, pL, pL),
        "f": push_table(obj["f"], pL, pA, pK),
    }


def module_perms(obj: dict, rng: random.Random) -> Dict[str, List[int]]:
    q, k = obj["quotient"], obj["kernel"]
    return {"A": random_perm(len(q["H"]["table"]), rng),
            "B": random_perm(len(q["G"]["table"]), rng),
            "K": random_perm(len(k["H"]["table"]), rng),
            "L": random_perm(len(k["G"]["table"]), rng)}


def morphism(obj: dict, pH_dom, pG_dom, pH_cod, pG_cod) -> dict:
    return {"psi": push_map(obj["psi"], pH_dom, pH_cod),
            "eta": push_map(obj["eta"], pG_dom, pG_cod)}


def extension(obj: dict, perms: Dict[str, List[int]]) -> dict:
    """perms holds K, L (kernel), H, G (total) and A, B (quotient)."""
    p = perms
    return {
        "kernel": structure(obj["kernel"], p["K"], p["L"]),
        "total": structure(obj["total"], p["H"], p["G"]),
        "quotient": structure(obj["quotient"], p["A"], p["B"]),
        "incl": morphism(obj["incl"], p["K"], p["L"], p["H"], p["G"]),
        "proj": morphism(obj["proj"], p["H"], p["G"], p["A"], p["B"]),
    }


def extension_perms(obj: dict, rng: random.Random) -> Dict[str, List[int]]:
    out = {}
    for part, (h, g) in (("kernel", "KL"), ("total", "HG"), ("quotient", "AB")):
        out[h] = random_perm(len(obj[part]["H"]["table"]), rng)
        out[g] = random_perm(len(obj[part]["G"]["table"]), rng)
    return out


def pair(obj: dict, perms: Dict[str, List[int]]) -> dict:
    """An automorphism pair (psi on the quotient, theta on the kernel)."""
    p = perms
    return {"psi": morphism(obj["psi"], p["A"], p["B"], p["A"], p["B"]),
            "theta": morphism(obj["theta"], p["K"], p["L"], p["K"], p["L"])}


def pair_key(obj: dict) -> tuple:
    return (tuple(obj["psi"]["psi"]), tuple(obj["psi"]["eta"]),
            tuple(obj["theta"]["psi"]), tuple(obj["theta"]["eta"]))


def pair_key_in_base(obj: dict, perms: Dict[str, List[int]]) -> tuple:
    """Key of a relabeled pair, written in the catalogue's labels."""
    p = perms
    return (tuple(pull_back(obj["psi"]["psi"], p["A"], p["A"])),
            tuple(pull_back(obj["psi"]["eta"], p["B"], p["B"])),
            tuple(pull_back(obj["theta"]["psi"], p["K"], p["K"])),
            tuple(pull_back(obj["theta"]["eta"], p["L"], p["L"])))
