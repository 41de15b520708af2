"""JSON schemas for groups, structures, extensions, modules, and cochains.

Wherever a group or structure is expected, the value may be an inline object
or a string path to another JSON file, resolved relative to the referencing
file.  Group objects come in two forms:

    {"name": ..., "order": n, "table": [[int]]}
    {"name": ..., "degree": d, "generators": [[int]]}

Factor systems are flat row-major arrays over nondegenerate tuples only,
together with the shape list [|A|, |B|, |K|, |L|]; each entry must be an
element index of the group the cochain maps into (K for tau1, rho and
kappa1, L for tau2, chi and kappa2).

Every integer field and array passes through ``strict_ints``: a bool, float
or string entry, an integer outside int64, a missing nesting level or a
ragged array is a ParseError naming its JSON path, never a silent coercion.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .extensions import Extension
from .groups import FiniteGroup, group_from_permutations
from .modules import ActionQuadruple, FactorSystem, RRBModule
from .rrb import RRBGroup, RRBMorphism, validate_morphism


class ParseError(ValueError):
    pass


def _load_json(path: Union[str, Path]) -> tuple:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), path.parent
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}")


def _resolve(value, base: Optional[Path]):
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = (base or Path(".")) / path
        return _load_json(path)
    return value, base


def _require(obj: dict, key: str, where: str):
    if type(obj) is not dict:
        raise ParseError(f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def strict_ints(value, path: str, depth: int):
    """value checked as an int64 integer (depth 0) or as a rectangular array
    of them nested ``depth`` levels deep; raises ParseError at the first
    entry that is not one, naming it by its JSON path, e.g. ``table[2][2]``."""

    def walk(v, where: str, d: int):
        if d == 0:
            if type(v) is not int:  # a bool's type is bool, not int
                raise ParseError(f"{where}: expected an integer, got {v!r}")
            if not INT64_MIN <= v <= INT64_MAX:
                raise ParseError(f"{where}: integer {v} is outside int64")
        elif type(v) is not list:
            raise ParseError(f"{where}: expected an array, got {v!r}")
        elif d > 1 or not all(type(x) is int for x in v) or (
                v and not INT64_MIN <= min(v) <= max(v) <= INT64_MAX):
            # Paths are built only here, off the common all-integer row.
            for i, x in enumerate(v):
                walk(x, f"{where}[{i}]", d - 1)
            if d > 1 and len({len(row) for row in v}) > 1:
                raise ParseError(f"{where}: rows differ in length")

    walk(value, path, depth)
    return value


def load_group(value, base: Optional[Path] = None) -> FiniteGroup:
    obj, base = _resolve(value, base)
    if not isinstance(obj, dict):
        raise ParseError("group payload must be an object")
    name = obj.get("name")
    if "table" in obj:
        table = strict_ints(obj["table"], "table", 2)
        if "order" in obj and len(table) != strict_ints(obj["order"], "order", 0):
            raise ParseError(f"order: {obj['order']} does not match the table size {len(table)}")
        return FiniteGroup(table, name=name)
    if "generators" in obj:
        degree = strict_ints(_require(obj, "degree", "permutation group"), "degree", 0)
        if degree < 0:
            raise ParseError(f"degree: expected a nonnegative integer, got {degree}")
        generators = strict_ints(obj["generators"], "generators", 2)
        return group_from_permutations(degree, generators, name=name)
    raise ParseError("group payload needs a 'table' or 'generators' key")


def group_to_json(G: FiniteGroup) -> dict:
    out = {"order": G.order, "table": G.table.tolist()}
    if G.name:
        out["name"] = G.name
    return out


def load_rrb(value, base: Optional[Path] = None) -> RRBGroup:
    obj, base = _resolve(value, base)
    H = load_group(_require(obj, "H", "structure"), base)
    G = load_group(_require(obj, "G", "structure"), base)
    phi = strict_ints(_require(obj, "phi", "structure"), "phi", 2)
    R = strict_ints(_require(obj, "R", "structure"), "R", 1)
    return RRBGroup(H, G, phi, R, name=obj.get("name"))


def rrb_to_json(rrb: RRBGroup) -> dict:
    out = {"H": group_to_json(rrb.H), "G": group_to_json(rrb.G),
           "phi": rrb.phi.tolist(), "R": rrb.R.tolist()}
    if rrb.name:
        out["name"] = rrb.name
    return out


def _load_morphism(obj: dict, key: str, where: str,
                   domain: RRBGroup, codomain: RRBGroup) -> RRBMorphism:
    """The morphism {"psi": [...], "eta": [...]} stored under obj[key]."""
    mor = _require(obj, key, where)
    psi, eta = (strict_ints(_require(mor, part, key), f"{key}.{part}", 1)
                for part in ("psi", "eta"))
    return validate_morphism(domain, codomain, psi, eta)


def morphism_to_json(m: RRBMorphism) -> dict:
    return {"psi": m.psi.image.tolist(), "eta": m.eta.image.tolist()}


def load_extension(value, base: Optional[Path] = None) -> Extension:
    obj, base = _resolve(value, base)
    kernel = load_rrb(_require(obj, "kernel", "extension"), base)
    total = load_rrb(_require(obj, "total", "extension"), base)
    quotient = load_rrb(_require(obj, "quotient", "extension"), base)
    incl = _load_morphism(obj, "incl", "extension", kernel, total)
    proj = _load_morphism(obj, "proj", "extension", total, quotient)
    return Extension(kernel, total, quotient, incl, proj)


def extension_to_json(ext: Extension) -> dict:
    return {"kernel": rrb_to_json(ext.kernel), "total": rrb_to_json(ext.total),
            "quotient": rrb_to_json(ext.quotient),
            "incl": morphism_to_json(ext.incl), "proj": morphism_to_json(ext.proj)}


def load_module(value, base: Optional[Path] = None) -> RRBModule:
    obj, base = _resolve(value, base)
    quotient = load_rrb(_require(obj, "quotient", "module"), base)
    kernel = load_rrb(_require(obj, "kernel", "module"), base)
    action = ActionQuadruple(*(strict_ints(_require(obj, key, "module"), key, 2)
                               for key in ("nu", "mu", "sigma", "f")))
    return RRBModule(quotient, kernel, action)


def module_to_json(module: RRBModule) -> dict:
    return {"quotient": rrb_to_json(module.quotient), "kernel": rrb_to_json(module.kernel),
            "nu": module.action.nu.tolist(), "mu": module.action.mu.tolist(),
            "sigma": module.action.sigma.tolist(), "f": module.action.f.tolist()}


def factor_system_to_json(fs: FactorSystem, nK: int, nL: int) -> dict:
    nA, nB = fs.shapes
    return {
        "shapes": [nA, nB, nK, nL],
        "tau1": [int(fs.tau1[a1, a2]) for a1 in range(1, nA) for a2 in range(1, nA)],
        "tau2": [int(fs.tau2[b1, b2]) for b1 in range(1, nB) for b2 in range(1, nB)],
        "rho": [int(fs.rho[a, b]) for a in range(1, nA) for b in range(1, nB)],
        "chi": [int(fs.chi[a]) for a in range(1, nA)],
    }


def _flat_entries(obj: dict, key: str, where: str, length: int, order: int,
                  label: str) -> list:
    """obj[key] as a flat list of ``length`` entries of a group of the given
    order; an entry outside [0, order) is a ParseError naming its index."""
    values = strict_ints(_require(obj, key, where), key, 1)
    if len(values) != length:
        raise ParseError(f"{key}: expected {length} entries")
    for i, value in enumerate(values):
        if not 0 <= value < order:
            raise ParseError(f"{key}[{i}]: entry {value} is outside {label} of order {order}")
    return values


def load_factor_system(value, module: RRBModule, base: Optional[Path] = None) -> FactorSystem:
    obj, base = _resolve(value, base)
    nA, nB, nK, nL = module.A.order, module.B.order, module.K.order, module.L.order
    shapes = strict_ints(_require(obj, "shapes", "factor system"), "shapes", 1)
    if shapes != [nA, nB, nK, nL]:
        raise ParseError(f"factor system shapes {shapes} do not match the module")

    def unflatten(key, rows, cols, order, label):
        """The (rows, cols) array with its flat entries off row and column 0."""
        values = _flat_entries(obj, key, "factor system", (rows - 1) * (cols - 1),
                               order, label)
        out = np.zeros((rows, cols), dtype=np.int64)
        out[1:, 1:] = np.reshape(np.array(values, dtype=np.int64), (rows - 1, cols - 1))
        return out

    tau1 = unflatten("tau1", nA, nA, nK, "K")
    tau2 = unflatten("tau2", nB, nB, nL, "L")
    rho = unflatten("rho", nA, nB, nK, "K")
    chi = unflatten("chi", nA, 2, nL, "L")[:, 1]  # the one nondegenerate column
    return FactorSystem(tau1, tau2, rho, chi)


def one_cochain_to_json(kappa, nA: int, nB: int) -> dict:
    """Degree-one cochains use the same flat nondegenerate layout."""
    return {
        "shapes": [nA, nB],
        "kappa1": [int(kappa.kappa1[a]) for a in range(1, nA)],
        "kappa2": [int(kappa.kappa2[b]) for b in range(1, nB)],
    }


def load_one_cochain(value, module: RRBModule, base: Optional[Path] = None):
    from .modules import OneCochain

    obj, base = _resolve(value, base)
    nA, nB = module.A.order, module.B.order
    shapes = strict_ints(_require(obj, "shapes", "one-cochain"), "shapes", 1)
    if shapes != [nA, nB]:
        raise ParseError(f"one-cochain shapes {shapes} do not match the module")
    k1 = _flat_entries(obj, "kappa1", "one-cochain", nA - 1, module.K.order, "K")
    k2 = _flat_entries(obj, "kappa2", "one-cochain", nB - 1, module.L.order, "L")
    return OneCochain([0] + k1, [0] + k2)


def load_pair(value, quotient: RRBGroup, kernel: RRBGroup,
              base: Optional[Path] = None):
    """An automorphism pair {"psi": {"psi":[...], "eta":[...]}, "theta": {...}}."""
    from .wells import CompatiblePair

    obj, base = _resolve(value, base)
    psi = _load_morphism(obj, "psi", "pair", quotient, quotient)
    theta = _load_morphism(obj, "theta", "pair", kernel, kernel)
    return CompatiblePair(psi, theta)


def pair_to_json(pair) -> dict:
    return {"psi": morphism_to_json(pair.psi), "theta": morphism_to_json(pair.theta)}


def detect_payload(obj: dict) -> str:
    """Classify a JSON object as group / structure / module / extension."""
    if not isinstance(obj, dict):
        raise ParseError("payload must be a JSON object")
    if {"kernel", "total", "quotient"} <= set(obj):
        return "extension"
    if {"nu", "mu", "sigma", "f"} <= set(obj):
        return "module"
    if {"phi", "R"} <= set(obj):
        return "structure"
    if "table" in obj or "generators" in obj:
        return "group"
    raise ParseError("payload does not match any known schema")
