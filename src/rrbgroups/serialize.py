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
import os
from typing import List, Optional, Sequence

import numpy as np

from .extensions import Extension
from .groups import FiniteGroup, GroupError, first_repeat, group_from_permutations
from .modules import ActionQuadruple, FactorSystem, OneCochain, RRBModule
from .rrb import RRBGroup, RRBMorphism, validate_morphism


class ParseError(ValueError):
    pass


def _load_json(path: str) -> tuple:
    """The JSON value of a file and the directory it is read from.  A file
    that cannot be read (missing, a directory, not permitted, not UTF-8, a
    NUL in its path) or is not JSON is a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), os.path.dirname(path)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}")
    except ValueError as exc:  # a NUL in the path, or an integer of too many digits
        raise ParseError(f"cannot read {path!r}: {exc}")


def _resolve(value, base: Optional[str]):
    """A payload given inline, or by a path relative to ``base``."""
    if isinstance(value, str):
        return _load_json(os.path.join(base or "", value))
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


def load_group(value, base: Optional[str] = None) -> FiniteGroup:
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


def load_rrb(value, base: Optional[str] = None) -> RRBGroup:
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
    """The morphism {"psi": [...], "eta": [...]} stored under obj[key].

    A map of the wrong length is a LengthMismatch, and an entry outside the
    codomain's H (for psi) or G (for eta) a NotClosed GroupError, each naming
    the map, e.g. ``incl.psi[0] = 99 is outside H of order 9``, with the
    numbers it names as the witness."""
    mor = _require(obj, key, where)
    psi, eta = (strict_ints(_require(mor, part, key), f"{key}.{part}", 1)
                for part in ("psi", "eta"))
    for part, image, label, source, group in (("psi", psi, "H", domain.H, codomain.H),
                                              ("eta", eta, "G", domain.G, codomain.G)):
        if len(image) != source.order:
            raise GroupError("LengthMismatch", f"{key}.{part} has {len(image)} entries, but "
                             f"the domain's {label} has order {source.order}",
                             (len(image), source.order))
        for i, x in enumerate(image):
            if not 0 <= x < group.order:
                raise GroupError("NotClosed", f"{key}.{part}[{i}] = {x} is outside "
                                 f"{label} of order {group.order}", (i,))
    return validate_morphism(domain, codomain, psi, eta)


def morphism_to_json(m: RRBMorphism) -> dict:
    return {"psi": m.psi.image.tolist(), "eta": m.eta.image.tolist()}


def load_extension(value, base: Optional[str] = None) -> Extension:
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


def load_module(value, base: Optional[str] = None) -> RRBModule:
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


def factor_systems_to_json(arrays: Sequence[np.ndarray], nK: int, nL: int) -> List[dict]:
    """The flat form of each 2-cochain of the stacks (tau1, tau2, rho, chi),
    one cochain per index of the leading axis: the entries off row and
    column 0, row-major."""
    tau1, tau2, rho, chi = arrays
    n, nA, nB = rho.shape
    flat = [x[:, 1:, 1:].reshape(n, (x.shape[1] - 1) * (x.shape[2] - 1)).tolist()
            for x in (tau1, tau2, rho)]
    return [{"shapes": [nA, nB, nK, nL], "tau1": t1, "tau2": t2, "rho": r, "chi": c}
            for t1, t2, r, c in zip(*flat, chi[:, 1:].tolist())]


def factor_system_to_json(fs: FactorSystem, nK: int, nL: int) -> dict:
    return factor_systems_to_json([x[None] for x in (fs.tau1, fs.tau2, fs.rho, fs.chi)],
                                  nK, nL)[0]


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


def load_factor_system(value, module: RRBModule, base: Optional[str] = None) -> FactorSystem:
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


def load_one_cochain(value, module: RRBModule, base: Optional[str] = None) -> OneCochain:
    obj, base = _resolve(value, base)
    nA, nB = module.A.order, module.B.order
    shapes = strict_ints(_require(obj, "shapes", "one-cochain"), "shapes", 1)
    if shapes != [nA, nB]:
        raise ParseError(f"one-cochain shapes {shapes} do not match the module")
    k1 = _flat_entries(obj, "kappa1", "one-cochain", nA - 1, module.K.order, "K")
    k2 = _flat_entries(obj, "kappa2", "one-cochain", nB - 1, module.L.order, "L")
    return OneCochain([0] + k1, [0] + k2)


def load_pair(value, quotient: RRBGroup, kernel: RRBGroup,
              base: Optional[str] = None):
    """An automorphism pair {"psi": {"psi":[...], "eta":[...]}, "theta": {...}}.

    A map that is not bijective is a NotInjective GroupError naming its
    first entry that repeats an earlier one, with that index as witness."""
    from .wells import CompatiblePair

    obj, base = _resolve(value, base)
    pair = CompatiblePair(_load_morphism(obj, "psi", "pair", quotient, quotient),
                          _load_morphism(obj, "theta", "pair", kernel, kernel))
    for key, morphism in zip(("psi", "theta"), pair):
        for part, hom in (("psi", morphism.psi), ("eta", morphism.eta)):
            at = first_repeat(hom.image[None])
            if at is not None:
                raise GroupError("NotInjective", f"{key}.{part}[{at[1]}] = {hom.image[at[1]]} "
                                 "repeats an earlier entry", at[1:])
    return pair


def pairs_to_json(stacks: Sequence[np.ndarray]) -> List[dict]:
    """The form ``load_pair`` reads of each row of the stacks (psi1, psi2, theta1, theta2)."""
    psi1, psi2, theta1, theta2 = (x.tolist() for x in stacks)
    return [{"psi": {"psi": a, "eta": b}, "theta": {"psi": k, "eta": l}}
            for a, b, k, l in zip(psi1, psi2, theta1, theta2)]


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
