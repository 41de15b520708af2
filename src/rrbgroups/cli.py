"""Command line front end.

Subcommands: validate, enumerate, cohomology, wells, inducible, all read
from the one table ``COMMANDS``, which declares each command's handler,
positionals and options; ``rrbgroups <command> -h`` lists a command's
options.  A plain call (the command, its positionals and its options
spelled in full) is read straight from that table and builds no argument
parser; any other call goes to the full argparse tree (see ``parse_args``).

Every command takes ``--format``; ``enumerate`` alone takes ``--budget``,
its cap on closure products, and ``cohomology`` alone ``--reps``.  No other
bound is set by the caller: every stacked pass is checked against the one
cell cap of ``groups.check_cells`` before it is built.

Exit codes: 0 success, 1 parse error, 2 semantic invalidity, 3 the budget
or the cell cap exceeded.  A usage error (a missing or extra argument, an
unknown option, a bad ``--format`` choice, a ``--budget`` that is not a
positive integer) also exits 2, with argparse's usage line on stderr.
Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, List, Optional

from . import serialize
from .cohomology import cochain_complex
from .groups import GroupError
from .rrb import DEFAULT_BUDGET, enumerate_rrb_operators
from .serialize import ParseError, _load_json
from .wells import WellsContext, verify_wells_exactness, is_inducible, \
    inducible_by_module_criterion, pair_is_compatible, wells_map

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

# Error codes of a refused bound, which exit EXIT_BUDGET wherever they arise.
BOUND_CODES = ("OrderTooLarge", "BudgetExceeded")


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written directly for
    a payload of dicts with str keys, lists, str, int, bool and None.
    ``indent`` is the newline and indentation that precede ``value``; a list
    of ints is joined in one call."""
    kind = type(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        for x in value:
            if type(x) is not int:
                items = [_json(x, inner) for x in value]
                break
        else:
            items = map(int.__repr__, value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json(value[key], inner)
            for key in sorted(value)]) + indent + "}"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return _json(list(value), indent)
    if isinstance(value, dict):
        return _json(dict(value), indent)
    return json.dumps(value)  # a float, or a subclass of str or int: as json writes it


def _emit(args: argparse.Namespace, payload: dict, text: Callable[[], List[str]]) -> None:
    """Print the answer in the format asked for: the JSON payload, or the
    lines of ``text()``, which are formatted only for ``--format text``."""
    if args.format == "json":
        print(_json(payload))
    else:
        for line in text():
            print(line)


def _verdict(exc: GroupError) -> dict:
    """The code and witness of a failed check, for JSON output.  A refused
    bound is no verdict: it is raised on to ``main``, which exits 3."""
    if exc.code in BOUND_CODES:
        raise exc
    return {"code": exc.code, "witness": list(exc.witness)}


def cmd_validate(args: argparse.Namespace) -> int:
    obj, base = _load_json(args.path)
    kind = serialize.detect_payload(obj)
    loader = {"group": serialize.load_group, "structure": serialize.load_rrb,
              "module": serialize.load_module, "extension": serialize.load_extension}[kind]
    try:
        loader(obj, base)
    except GroupError as exc:
        payload = {"kind": kind, "valid": False, **_verdict(exc)}
        _emit(args, payload, lambda: [f"{kind}: INVALID", f"  {exc}"])
        return EXIT_INVALID
    _emit(args, {"kind": kind, "valid": True}, lambda: [f"{kind}: valid"])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    H = serialize.load_group(*_load_json(args.H))
    G = serialize.load_group(*_load_json(args.G))
    phi = serialize.strict_ints(_load_json(args.phi)[0], "phi", 2)
    operators = [op.tolist() for op in enumerate_rrb_operators(H, G, phi, budget=args.budget)]
    _emit(args, {"count": len(operators), "operators": operators},
          lambda: [f"operators: {len(operators)}"]
          + ["  " + " ".join(map(str, op)) for op in operators])
    return EXIT_OK


def cmd_cohomology(args: argparse.Namespace) -> int:
    module = serialize.load_module(*_load_json(args.module))
    cx = cochain_complex(module)
    groups = {"z1": cx.z1, "z2": cx.z2, "b2": cx.b2, "h2": cx.h2}
    payload = {name: list(g.factors) for name, g in groups.items()}
    payload["orders"] = {name: g.order for name, g in groups.items()}
    classes, reps = [], []
    if args.reps:
        coords = cx.h2_coords()
        classes, reps = coords.tolist(), cx.class_representatives(coords)
        payload["witnesses"] = [
            {"class": cls, "representative": rep} for cls, rep in zip(
                classes, serialize.factor_systems_to_json(reps, module.K.order, module.L.order))]

    def text() -> List[str]:
        lines = [f"{name}: factors {list(g.factors)} order {g.order}"
                 for name, g in groups.items()]
        return lines + [f"class {cls}: tau1 {tau1} tau2 {tau2} rho {rho} chi {chi}"
                        for cls, tau1, tau2, rho, chi in zip(classes, *(x.tolist() for x in reps))]
    _emit(args, payload, text)
    return EXIT_OK


def cmd_wells(args: argparse.Namespace) -> int:
    ext = serialize.load_extension(*_load_json(args.extension))
    report = verify_wells_exactness(ext)
    omega, inducible = report.omega.tolist(), report.inducible.tolist()
    pair_objs = [{**obj, "in_C": c >= 0, "omega": omega[c] if c >= 0 else None,
                  "inducible": c >= 0 and inducible[c]}
                 for obj, c in zip(serialize.pairs_to_json(report.pairs), report.position.tolist())]
    payload = {"pairs": pair_objs, "exactness": dict(report.exactness),
               "omega_is_homomorphism": report.omega_is_homomorphism}

    def text() -> List[str]:
        lines = [f"pair psi={obj['psi']['psi']}/{obj['psi']['eta']} "
                 f"theta={obj['theta']['psi']}/{obj['theta']['eta']} "
                 f"in_C={obj['in_C']} omega={obj['omega']} inducible={obj['inducible']}"
                 for obj in pair_objs]
        return lines + ["exactness: " + " ".join(
                            f"{k}={v}" for k, v in sorted(report.exactness.items())),
                        f"omega_is_homomorphism: {report.omega_is_homomorphism}"]
    _emit(args, payload, text)
    return EXIT_OK


def cmd_inducible(args: argparse.Namespace) -> int:
    ext = serialize.load_extension(*_load_json(args.extension))
    pair_obj, base = _load_json(args.pair)
    try:
        pair = serialize.load_pair(pair_obj, ext.quotient, ext.kernel, base)
    except GroupError as exc:
        _emit(args, {"error": str(exc), **_verdict(exc)}, lambda: [f"pair invalid: {exc}"])
        return EXIT_INVALID
    ctx = WellsContext(ext)
    verdict, witness = is_inducible(ctx, pair)
    by_module = inducible_by_module_criterion(ctx, pair)
    in_c = pair_is_compatible(ctx.module, pair)
    payload = {
        "in_C": in_c,
        "omega": list(wells_map(ctx, pair).coords) if in_c else None,
        "inducible": verdict,
        "inducible_by_module_criterion": by_module,
        "deciders_agree": verdict == by_module,
        "witness": serialize.morphism_to_json(witness) if witness else None,
    }

    def text() -> List[str]:
        lines = [f"in_C: {in_c}",
                 f"omega: {payload['omega']}",
                 f"inducible: {verdict}",
                 f"module criterion: {by_module}",
                 f"deciders agree: {payload['deciders_agree']}"]
        if witness is not None:
            lines.append(f"witness psi: {payload['witness']['psi']}")
            lines.append(f"witness eta: {payload['witness']['eta']}")
        return lines
    _emit(args, payload, text)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of ``--budget``: anything but a positive integer is a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# Each option, declared once as the keyword arguments of ``add_argument``.
_FORMAT = {"choices": ("text", "json"), "default": "text"}
_BUDGET = {"type": _positive_int, "default": DEFAULT_BUDGET,
           "help": "closure-product cap for operator enumeration"}
_REPS = {"action": "store_true", "default": False, "help": "dump class representatives"}

# name -> (handler, help line, positionals, options); the one grammar of the
# CLI, read by both ``_add_command`` and ``_match``.
COMMANDS = {
    "validate": (cmd_validate, "validate a group/structure/module/extension file",
                 ("path",), {"--format": _FORMAT}),
    "enumerate": (cmd_enumerate, "enumerate operators for (H, G, phi)",
                  ("H", "G", "phi"), {"--format": _FORMAT, "--budget": _BUDGET}),
    "cohomology": (cmd_cohomology, "cochain groups of a module file",
                   ("module",), {"--format": _FORMAT, "--reps": _REPS}),
    "wells": (cmd_wells, "full lifting/exactness report for an extension",
              ("extension",), {"--format": _FORMAT}),
    "inducible": (cmd_inducible, "decide liftability of an automorphism pair",
                  ("extension", "pair"), {"--format": _FORMAT}),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    """Give ``parser`` the options and positionals of subcommand ``name``."""
    run, _, positionals, options = COMMANDS[name]
    for option, spec in options.items():
        parser.add_argument(option, **spec)
    for positional in positionals:
        parser.add_argument(positional)
    parser.set_defaults(run=run, command=name)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="rrbgroups",
        description="Validate, enumerate, and analyze operator-group data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def _match(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace the full tree returns for a plain call, else None.

    A plain call names its command first; every other token is a positional
    that does not start with ``-`` or one of the command's options spelled
    in full, as ``--opt value`` or ``--opt=value`` (a flag takes no value),
    and there are exactly as many positionals as the command has.  A value
    must pass the option's ``type`` and ``choices``; a repeated option keeps
    its last value, as argparse does.  Anything else (help, abbreviations,
    ``--``, a token that starts with ``-`` where a positional or value
    should be, a bad value, a missing or extra argument) is None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    run, _, positionals, options = COMMANDS[argv[0]]
    values = {option[2:]: spec["default"] for option, spec in options.items()}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        option, joined, value = token.partition("=")
        spec = options.get(option)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            if joined:
                return None
            value = True
        else:
            if not joined:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            try:
                value = spec.get("type", str)(value)
            except argparse.ArgumentTypeError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[option[2:]] = value
    if len(words) != len(positionals):
        return None
    return argparse.Namespace(command=argv[0], run=run, **values,
                              **dict(zip(positionals, words)))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: a plain call is read by ``_match``
    from ``COMMANDS`` without building any parser; every other argv goes to
    the full tree, so help, usage errors and exit codes are argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _match(argv) or build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GroupError as exc:
        if exc.code in BOUND_CODES:
            print(f"bound exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
