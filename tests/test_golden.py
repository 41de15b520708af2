"""CLI stdout on the fixtures matches the stored golden files byte for byte.

The commands run in-process through ``cli.main``.  To rewrite the golden
files after an intended output change, run ``python tests/test_golden.py``
with ``src`` on ``PYTHONPATH`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from rrbgroups import cli
from rrbgroups.serialize import load_factor_system, load_module

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "rrbgroups" / "fixtures"
INPUTS = Path(__file__).resolve().parent / "inputs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _commands():
    """(golden name, argv without --format) for every stored command."""
    cmds = [(f"validate__{p.stem}", ["validate", str(p)])
            for p in sorted(FIXTURES.glob("*.json"))]
    cmds += [(f"cohomology__{p.stem}", ["cohomology", str(p), "--reps"])
             for p in sorted(FIXTURES.glob("module_*.json"))]
    cmds += [(f"wells__{p.stem}", ["wells", str(p)])
             for p in sorted(FIXTURES.glob("ext_*.json"))]
    # Trivial product extension of Z2 by Z2^2: all 36 pairs are compatible,
    # so both C x C loops of the exactness audit run over 1296 products.
    cmds += [(f"wells__{p.stem}", ["wells", str(p)])
             for p in sorted(INPUTS.glob("ext_*.json"))]
    cmds += [(f"inducible__ext_z9__{p.stem}",
              ["inducible", str(FIXTURES / "ext_z9.json"), str(p)])
             for p in sorted(FIXTURES.glob("pair_z9_*.json"))]
    return [(f"{name}.{fmt}", [*argv, "--format", fmt])
            for name, argv in cmds for fmt in ("text", "json")]


COMMANDS = _commands()


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


def test_command_set():
    # 23 validate, 3 cohomology, 8 wells and 3 inducible runs, in two formats.
    assert len(COMMANDS) == 2 * (23 + 3 + 8 + 3)


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_stdout_matches_golden(name, argv):
    assert _stdout(argv) == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("cohomology__*.json")),
                         ids=lambda path: path.stem)
def test_golden_representatives_are_cocycles(path):
    # The stored representatives depend on the basis the solver picks; each
    # must still satisfy the five conditions, checked by the direct oracle.
    from oracles import cocycle_violations

    module = load_module(str(FIXTURES / (path.stem.split("__")[1] + ".json")))
    witnesses = json.loads(path.read_text())["witnesses"]
    assert witnesses
    for witness in witnesses:
        fs = load_factor_system(witness["representative"], module)
        assert cocycle_violations(module, fs) == []


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("cohomology__*.json")),
                         ids=lambda path: path.stem)
def test_golden_classes_are_distinct(path):
    # Whatever the basis, one representative per class of H2.
    stored = json.loads(path.read_text())
    classes = {tuple(witness["class"]) for witness in stored["witnesses"]}
    assert len(classes) == len(stored["witnesses"]) == stored["orders"]["h2"]


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("wells__*.json")),
                         ids=lambda path: path.stem)
def test_golden_omega_matches_verdicts(path):
    # Whatever the basis, omega is set exactly on the compatible pairs and
    # is zero exactly on the inducible ones.
    for pair in json.loads(path.read_text())["pairs"]:
        assert (pair["omega"] is None) == (not pair["in_C"])
        assert (pair["omega"] is not None and not any(pair["omega"])) == pair["inducible"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS:
        (GOLDEN_DIR / name).write_text(_stdout(argv))
