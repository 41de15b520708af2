"""Command line front end.

Subcommands: validate, enumerate, cohomology, wells, inducible, all read
from the one table ``COMMANDS``; ``rrbgroups <command> -h`` lists a
command's options.  A call that names its command builds only that
command's parser (see ``parse_args``).

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
from typing import List, Optional

from . import serialize
from .cohomology import cochain_complex
from .groups import GroupError
from .rrb import DEFAULT_BUDGET, RRBError, enumerate_rrb_operators
from .serialize import ParseError, _load_json
from .wells import WellsContext, verify_wells_exactness, is_inducible, \
    inducible_by_module_criterion, pair_is_compatible, wells_map

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

# Error codes of a refused bound, which exit EXIT_BUDGET wherever they arise.
BOUND_CODES = ("OrderTooLarge", "BudgetExceeded")


def _emit(args: argparse.Namespace, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args: argparse.Namespace) -> int:
    obj, base = _load_json(args.path)
    kind = serialize.detect_payload(obj)
    loader = {"group": serialize.load_group, "structure": serialize.load_rrb,
              "module": serialize.load_module, "extension": serialize.load_extension}[kind]
    try:
        loader(obj, base)
    except (GroupError, RRBError) as exc:
        if exc.code in BOUND_CODES:
            raise
        payload = {"kind": kind, "valid": False, "code": exc.code,
                   "witness": list(getattr(exc, "witness", ()))}
        _emit(args, payload, [f"{kind}: INVALID", f"  {exc}"])
        return EXIT_INVALID
    _emit(args, {"kind": kind, "valid": True}, [f"{kind}: valid"])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    H = serialize.load_group(*_load_json(args.H))
    G = serialize.load_group(*_load_json(args.G))
    phi = serialize.strict_ints(_load_json(args.phi)[0], "phi", 2)
    operators = enumerate_rrb_operators(H, G, phi, budget=args.budget)
    payload = {"count": len(operators), "operators": [op.tolist() for op in operators]}
    lines = [f"operators: {len(operators)}"]
    lines += ["  " + " ".join(str(x) for x in op.tolist()) for op in operators]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cohomology(args: argparse.Namespace) -> int:
    module = serialize.load_module(*_load_json(args.module))
    cx = cochain_complex(module)
    groups = {"z1": cx.z1, "z2": cx.z2, "b2": cx.b2, "h2": cx.h2}
    payload = {name: list(g.factors) for name, g in groups.items()}
    payload["orders"] = {name: g.order for name, g in groups.items()}
    lines = [f"{name}: factors {list(g.factors)} order {g.order}"
             for name, g in groups.items()]
    if args.reps:
        reps = []
        for cls in cx.h2_classes():
            fs = cx.class_representative(cls)
            reps.append({"class": list(cls.coords),
                         "representative": serialize.factor_system_to_json(
                             fs, module.K.order, module.L.order)})
            lines.append(f"class {list(cls.coords)}: "
                         f"tau1 {fs.tau1.tolist()} tau2 {fs.tau2.tolist()} "
                         f"rho {fs.rho.tolist()} chi {fs.chi.tolist()}")
        payload["witnesses"] = reps
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_wells(args: argparse.Namespace) -> int:
    ext = serialize.load_extension(*_load_json(args.extension))
    report = verify_wells_exactness(ext)
    pair_objs = []
    lines = []
    for rec in report.pairs:
        obj = serialize.pair_to_json(rec.pair)
        obj["in_C"] = rec.in_C
        obj["omega"] = list(rec.omega) if rec.omega is not None else None
        obj["inducible"] = rec.inducible
        pair_objs.append(obj)
        lines.append(f"pair psi={rec.pair.psi.psi.image.tolist()}"
                     f"/{rec.pair.psi.eta.image.tolist()} "
                     f"theta={rec.pair.theta.psi.image.tolist()}"
                     f"/{rec.pair.theta.eta.image.tolist()} "
                     f"in_C={rec.in_C} omega={obj['omega']} inducible={rec.inducible}")
    payload = {"pairs": pair_objs, "exactness": dict(report.exactness),
               "omega_is_homomorphism": report.omega_is_homomorphism}
    lines.append("exactness: " + " ".join(
        f"{k}={v}" for k, v in sorted(report.exactness.items())))
    lines.append(f"omega_is_homomorphism: {report.omega_is_homomorphism}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_inducible(args: argparse.Namespace) -> int:
    ext = serialize.load_extension(*_load_json(args.extension))
    pair_obj, base = _load_json(args.pair)
    try:
        pair = serialize.load_pair(pair_obj, ext.quotient, ext.kernel, base)
    except (GroupError, RRBError) as exc:
        _emit(args, {"error": str(exc)}, [f"pair invalid: {exc}"])
        return EXIT_INVALID
    if not (pair.psi.is_bijective() and pair.theta.is_bijective()):
        _emit(args, {"error": "pair is not a pair of automorphisms"},
              ["pair invalid: components are not bijective"])
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
    lines = [f"in_C: {in_c}",
             f"omega: {payload['omega']}",
             f"inducible: {verdict}",
             f"module criterion: {by_module}",
             f"deciders agree: {payload['deciders_agree']}"]
    if witness is not None:
        lines.append(f"witness psi: {witness.psi.image.tolist()}")
        lines.append(f"witness eta: {witness.eta.image.tolist()}")
    _emit(args, payload, lines)
    return EXIT_OK


# name -> (handler, help line, positionals); the one grammar of the CLI.
COMMANDS = {
    "validate": (cmd_validate, "validate a group/structure/module/extension file",
                 ("path",)),
    "enumerate": (cmd_enumerate, "enumerate operators for (H, G, phi)", ("H", "G", "phi")),
    "cohomology": (cmd_cohomology, "cochain groups of a module file", ("module",)),
    "wells": (cmd_wells, "full lifting/exactness report for an extension", ("extension",)),
    "inducible": (cmd_inducible, "decide liftability of an automorphism pair",
                  ("extension", "pair")),
}


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


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the options and positionals of subcommand ``name``."""
    run, _, positionals = COMMANDS[name]
    parser.add_argument("--format", choices=("text", "json"), default="text")
    for positional in positionals:
        parser.add_argument(positional)
    if name == "enumerate":
        parser.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                            help="closure-product cap for operator enumeration")
    if name == "cohomology":
        parser.add_argument("--reps", action="store_true", help="dump class representatives")
    parser.set_defaults(run=run, command=name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="rrbgroups",
        description="Validate, enumerate, and analyze operator-group data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named command's
    parser when that parser alone accepts the whole argv.

    The single parser has the subparser's prog and arguments, so its
    Namespace, help and usage errors are the subparser's.  Any other argv
    (top-level help, no command or an unknown one, or arguments left over,
    which the full tree reports as unrecognized) goes to the full tree.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"rrbgroups {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GroupError, RRBError) as exc:
        if exc.code in BOUND_CODES:
            print(f"bound exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
