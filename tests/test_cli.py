"""Command line behavior: exit codes, schemas, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR
from rrbgroups import cli

F = FIXTURE_DIR


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rrbgroups", *map(str, args)],
                          capture_output=True, text=True)


class TestExitCodes:
    def test_valid_group(self):
        proc = run_cli("validate", F / "group_z2.json")
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    def test_invalid_group_table(self):
        proc = run_cli("validate", F / "group_bad_table.json")
        assert proc.returncode == 2
        assert "NoInverse" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_out_of_range_entry_has_int_witness(self, tmp_path, fmt):
        bad = tmp_path / "group_out_of_range.json"
        bad.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 5]]}))
        proc = run_cli("validate", bad, "--format", fmt)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        if fmt == "json":
            out = json.loads(proc.stdout)
            assert out["code"] == "NotClosed" and out["witness"] == [1, 1]
        else:
            assert "NotClosed: entry at (1, 1) out of range" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_module_f_entry_outside_k_is_a_verdict(self, tmp_path, fmt):
        module = json.loads((F / "module_trivial_z2.json").read_text())
        module["f"][1][1] = 5
        bad = tmp_path / "module.json"
        bad.write_text(json.dumps(module))
        proc = run_cli("validate", bad, "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr == ""
        if fmt == "json":
            assert json.loads(proc.stdout) == {"kind": "module", "valid": False,
                                               "code": "ModuleInvalid", "witness": [1, 1]}
        else:
            assert proc.stdout == "module: INVALID\n  ModuleInvalid: f(1, 1) = 5 is outside K\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_extension_map_entry_outside_codomain_is_not_closed(self, tmp_path, fmt):
        ext = json.loads((F / "ext_z9.json").read_text())
        ext["incl"]["psi"] = [99, 99, 99]
        bad = tmp_path / "ext.json"
        bad.write_text(json.dumps(ext))
        proc = run_cli("validate", bad, "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr == ""
        if fmt == "json":
            assert json.loads(proc.stdout) == {"kind": "extension", "valid": False,
                                               "code": "NotClosed", "witness": [0]}
        else:
            assert proc.stdout == ("extension: INVALID\n"
                                   "  NotClosed: incl.psi[0] = 99 is outside H of order 9\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("key,image,message", [
        ("psi", [77, 77, 77], "psi.psi[0] = 77 is outside H of order 3"),
        ("theta", [0, 1, 77], "theta.psi[2] = 77 is outside H of order 3"),
    ], ids=["psi", "theta"])
    def test_pair_map_entry_outside_codomain_is_not_closed(self, tmp_path, key, image,
                                                           message, fmt):
        pair = json.loads((F / "pair_z9_identity.json").read_text())
        pair[key]["psi"] = image
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(pair))
        proc = run_cli("inducible", F / "ext_z9.json", bad, "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr == ""
        message = f"NotClosed: {message}"
        if fmt == "json":
            assert json.loads(proc.stdout) == {"error": message, "code": "NotClosed",
                                               "witness": [image.index(77)]}
        else:
            assert proc.stdout == f"pair invalid: {message}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_extension_map_of_wrong_length_names_the_map(self, tmp_path, fmt):
        ext = json.loads((F / "ext_z9.json").read_text())
        ext["incl"]["psi"] = [0, 3]
        bad = tmp_path / "ext.json"
        bad.write_text(json.dumps(ext))
        proc = run_cli("validate", bad, "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr == ""
        if fmt == "json":
            assert json.loads(proc.stdout) == {"kind": "extension", "valid": False,
                                               "code": "LengthMismatch", "witness": [2, 3]}
        else:
            assert proc.stdout == ("extension: INVALID\n  LengthMismatch: incl.psi has 2 "
                                   "entries, but the domain's H has order 3\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("image,code,witness,message", [
        ([0, 1], "LengthMismatch", [2, 3], "psi.psi has 2 entries, but the domain's H has order 3"),
        ([0, 2, 2], "NotHomomorphism", [1, 1],
         "map does not respect multiplication at (x, y) = (1, 1)"),
        ([0, 0, 0], "NotInjective", [1], "psi.psi[1] = 0 repeats an earlier entry"),
    ], ids=["length", "not_homomorphism", "not_bijective"])
    def test_pair_that_fails_to_load_has_code_and_witness(self, tmp_path, image, code,
                                                          witness, message, fmt):
        pair = json.loads((F / "pair_z9_identity.json").read_text())
        pair["psi"]["psi"] = image
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(pair))
        proc = run_cli("inducible", F / "ext_z9.json", bad, "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr == ""
        if fmt == "json":
            assert json.loads(proc.stdout) == {"error": f"{code}: {message}", "code": code,
                                               "witness": witness}
        else:
            assert proc.stdout == f"pair invalid: {code}: {message}\n"

    def test_invalid_operator(self):
        proc = run_cli("validate", F / "rrb_bad_axiom.json")
        assert proc.returncode == 2
        assert "RRBAxiomFails" in proc.stdout

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        proc = run_cli("validate", bad)
        assert proc.returncode == 1
        assert "parse error" in proc.stderr

    def test_missing_file_is_parse_error(self):
        proc = run_cli("validate", "/no/such/file.json")
        assert proc.returncode == 1
        assert proc.stderr == "parse error: no such file: /no/such/file.json\n"

    @pytest.mark.parametrize("kind,reason", [("directory", "Is a directory"),
                                             ("utf16_bom", "not UTF-8 text")])
    def test_unreadable_file_is_parse_error(self, tmp_path, kind, reason):
        # A directory, or a file that starts with the bytes FF FE (a UTF-16
        # byte order mark), cannot be read as UTF-8 JSON.
        path = tmp_path
        if kind == "utf16_bom":
            path = tmp_path / "group.json"
            path.write_bytes(b"\xff\xfe" + json.dumps({"order": 1, "table": [[0]]}).encode("utf-16-le"))
        proc = run_cli("validate", path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"parse error: cannot read {path}: {reason}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["nul_in_reference", "integer_of_5000_digits"])
    def test_value_error_while_reading_is_parse_error(self, tmp_path, kind):
        path = tmp_path / "input.json"
        if kind == "nul_in_reference":
            path.write_text(json.dumps({"H": "a\x00b.json", "G": "g.json", "phi": [[0]], "R": [0]}))
        else:
            path.write_text('{"order": 1, "table": [[' + "1" * 5000 + "]]}")
        proc = run_cli("validate", path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("parse error: cannot read ")
        assert "Traceback" not in proc.stderr

    def test_budget_exceeded(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2, 3]] * 4))
        proc = run_cli("enumerate", F / "group_z4.json", F / "group_z4.json",
                       phi, "--budget", "2")
        assert proc.returncode == 3
        assert "bound exceeded" in proc.stderr

    def test_automorphism_search_cap_exceeded(self, tmp_path):
        # Total Z2^5 x 1 (order 32) with kernel Z2:
        # the stabilizer search of the total would outgrow its cell cap.
        from rrbgroups import cyclic_group, direct_product, product_extension, trivial_rrb
        from rrbgroups.serialize import extension_to_json

        z2, one = cyclic_group(2), cyclic_group(1)
        v4 = direct_product(z2, z2).group
        ext = product_extension(trivial_rrb(direct_product(v4, v4).group, one),
                                trivial_rrb(z2, one))
        assert ext.total.H.order == 32
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(extension_to_json(ext)))
        proc = run_cli("wells", path)
        assert proc.returncode == 3
        assert "bound exceeded" in proc.stderr

    @staticmethod
    def _refused(proc, started):
        assert time.perf_counter() - started < 2
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("bound exceeded: OrderTooLarge: ")

    def test_kernel_automorphism_pairs_refused(self, tmp_path):
        # Kernel (Z2^4, Z2^4, trivial, R = 0) over a one-point quotient: Aut(Z2^4)
        # has 20,160 elements, so the kernel's candidate pairs are 20,160^2.
        from rrbgroups import cyclic_group, direct_product, product_extension, trivial_rrb
        from rrbgroups.serialize import extension_to_json

        z2, one = cyclic_group(2), cyclic_group(1)
        v4 = direct_product(z2, z2).group
        z2_4 = direct_product(v4, v4).group
        ext = product_extension(trivial_rrb(one, one), trivial_rrb(z2_4, z2_4))
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(extension_to_json(ext)))
        started = time.perf_counter()
        self._refused(run_cli("wells", path), started)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_permutation_closure_refused(self, tmp_path, fmt):
        # S7, 5,040 elements, is refused while loading, not reported invalid.
        path = tmp_path / "s7.json"
        path.write_text(json.dumps({"degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6],
                                                                [1, 2, 3, 4, 5, 6, 0]]}))
        started = time.perf_counter()
        self._refused(run_cli("validate", path, "--format", fmt), started)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_cycle_refused_on_its_stored_permutations(self, tmp_path, fmt):
        # An 8,192-cycle passes the cap on its 129th stored permutation.
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"degree": 8192,
                                    "generators": [[(i + 1) % 8192 for i in range(8192)]]}))
        started = time.perf_counter()
        proc = run_cli("validate", path, "--format", fmt)
        self._refused(proc, started)
        assert "a closure of 129 permutations on 8192 moved points" in proc.stderr

    def test_budget_env_is_not_read(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2, 3]] * 4))
        env = dict(os.environ, RRB_BUDGET="2")
        proc = subprocess.run(
            [sys.executable, "-m", "rrbgroups", "enumerate",
             str(F / "group_z4.json"), str(F / "group_z4.json"), str(phi)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("operators: 4\n")

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_budget_env_not_an_integer(self, value):
        env = dict(os.environ, RRB_BUDGET=value)
        proc = subprocess.run(
            [sys.executable, "-m", "rrbgroups", "validate", str(F / "group_z2.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == "group: valid\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("value", ["0", "-3", "x", "1.5"])
    def test_budget_must_be_a_positive_integer(self, value):
        proc = run_cli("enumerate", F / "group_z4.json", F / "group_z4.json", "phi.json",
                       "--budget", value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: rrbgroups enumerate ")
        assert proc.stderr.splitlines()[-1] == (
            f"rrbgroups enumerate: error: argument --budget: "
            f"expected a positive integer, got {value!r}")

    @pytest.mark.parametrize("argv", [
        ["validate", "group_z2.json", "--budget", "3"],
        ["wells", "ext_z9.json", "--budget=3"],
        ["enumerate", "group_z3.json", "group_z2.json", "phi.json", "--max-order", "5"],
        ["wells", "ext_z9.json", "--max-order", "16"],
        ["inducible", "ext_z9.json", "pair_z9_identity.json", "--max-order=1"],
    ], ids=" ".join)
    def test_removed_options_are_usage_errors(self, argv, capsys):
        # Refused while parsing, before any file is opened.
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        assert "error: unrecognized arguments: --" in capsys.readouterr().err


def _argv_corpus():
    """Argument vectors for every command and the usage errors around them.

    Every command is tried with every option any command has: ``--budget``
    outside ``enumerate``, ``--reps`` outside ``cohomology`` and the removed
    ``--max-order`` are usage errors."""
    positionals = {"validate": ["x"], "enumerate": ["h", "g", "p"], "cohomology": ["m"],
                   "wells": ["e"], "inducible": ["e", "p"]}
    corpus = [[], ["-h"], ["--help"], ["frobnicate", "x"], ["--format", "json", "validate", "x"],
              ["validate", "x", "--max-o", "5"], ["enumerate", "h", "g", "p", "--bud", "3"],
              ["cohomology", "--form", "json", "m", "--re"], ["validate", "--", "x"],
              ["inducible", "e", "--", "p"], ["validate", "x", "--"], ["validate", "x", "--", "y"],
              ["cohomology", "m", "--reps", "--reps"], ["wells", "e", "--max-order", "-3"],
              ["validate", "x", "y"], ["validate", "x", "--bogus"], ["validate", "--bogus"],
              ["validate", "x", "--format", "xml"], ["wells", "e", "--max-order", "abc"],
              ["wells", "e", "--max-order=1.5"], ["enumerate", "h", "g", "p", "--budget", "lots"],
              ["cohomology", "--reps"], ["validate", "-h", "x"],
              ["enumerate", "h", "g", "p", "--budget", "0"], ["enumerate", "h", "g", "p", "--budget=-2"],
              ["wells", "e", "--he"], ["validate", "x", "-h", "--bogus"]]
    for name, args in positionals.items():
        corpus += [[name, *args], [name, "-h"], [name, *args[:-1]], [name, *args, "extra"]]
        options = [("--format", "json"), ("--max-order", "5"), ("--budget", "7")]
        for opt, value in options:
            corpus += [[name, *args, opt, value], [name, f"{opt}={value}", *args]]
        corpus.append([name, *args, *(part for option in options for part in option)])
        corpus.append([name, *args, "--reps"])
    return corpus


# Tokens of the grammar for drawn argvs: positionals, option values, option
# spellings (full, abbreviated, removed) and the tokens that mean help or
# end the options.
_WORDS = ("x", "y", "-", "", "-1", "a b", "a=b", "validate")
_VALUES = ("json", "text", "xml", "7", "0", "-3", "1_000", " 7", "+7", "")
_OPTIONS = ("--format", "--budget", "--reps", "--form", "--bud", "--re", "--max-order")
_SPECIALS = ("--", "-h", "--help", "--he", "--reps=", "--format=")


@st.composite
def _argvs(draw):
    """A command (or not) with about its number of positionals, options in
    every spelling at any place, and now and then a special token; plain
    tokens are drawn more often, so that many argvs are plain calls."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 2 + ["frobnicate", "-h"]))
    count = len(cli.COMMANDS[command][2]) if command in cli.COMMANDS else 1
    count += draw(st.sampled_from([0] * 6 + [-1, 1]))
    argv = [draw(st.sampled_from(_WORDS[:2] * 6 + _WORDS)) for _ in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        option = draw(st.sampled_from(_OPTIONS[:3] * 4 + _OPTIONS))
        value = draw(st.sampled_from(_VALUES[:4] * 4 + _VALUES))
        spelling = draw(st.sampled_from([[option], [option, value], [f"{option}={value}"]]))
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = spelling
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_SPECIALS)))
    return [command, *argv]


class TestArgumentParsing:
    """``cli.parse_args`` answers as the full parser tree does, building no
    parser for a plain call."""

    @staticmethod
    def _outcome(parse, argv):
        """(Namespace or exit code, stdout, stderr) of parsing argv."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = ("namespace", parse(argv))
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    def _assert_same_as_full_tree(self, argv):
        got = self._outcome(cli.parse_args, argv)
        assert got == self._outcome(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", _argv_corpus(), ids=" ".join)
    def test_same_as_full_tree(self, argv):
        self._assert_same_as_full_tree(argv)

    @given(_argvs())
    @settings(max_examples=300, deadline=None)
    def test_drawn_argvs_same_as_full_tree(self, argv):
        self._assert_same_as_full_tree(argv)

    @pytest.mark.parametrize("argv", [
        ["validate", str(F / "group_z2.json"), "--format", "json"],
        ["enumerate", str(F / "group_z3.json"), str(F / "group_z2.json"), "PHI", "--budget", "50"],
        ["cohomology", "--reps", str(F / "module_trivial_z2.json"), "--format=json"],
        ["wells", str(F / "ext_z9.json")],
        ["inducible", str(F / "ext_z9.json"), str(F / "pair_z9_identity.json")],
    ], ids=lambda argv: argv[0])
    def test_well_formed_call_builds_no_parser(self, argv, tmp_path, monkeypatch, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
        argv = [str(phi) if arg == "PHI" else arg for arg in argv]
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(argv) == 0
        assert built == []
        assert capsys.readouterr().err == ""


class TestStrictIntegers:
    """A JSON value that is not an integer is a parse error naming its path."""

    @pytest.mark.parametrize("entry", [1.5, True, "x"])
    def test_group_table_entry(self, tmp_path, entry):
        # 1.5 and true would truncate to 1, which completes a valid Z3 table.
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 0, entry]]}))
        proc = run_cli("validate", group)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "table[2][2]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ragged_table(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"table": [[0, 1], [1]]}))
        proc = run_cli("validate", group)
        assert proc.returncode == 1
        assert "rows differ in length" in proc.stderr

    def test_nested_value_that_is_not_an_object(self, tmp_path):
        ext = json.loads((F / "ext_z9.json").read_text())
        ext["incl"] = 5
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(ext))
        proc = run_cli("validate", path)
        assert proc.returncode == 1
        assert "incl: expected an object" in proc.stderr

    def test_enumerate_phi_entry(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2], [0, 2, 1.0]]))
        proc = run_cli("enumerate", F / "group_z3.json", F / "group_z2.json", phi)
        assert proc.returncode == 1
        assert "phi[1][2]" in proc.stderr


    @pytest.mark.parametrize("fixture,path,keys,value", [
        ("group_z2.json", "table[1][1]", ("table", 1, 1), 2 ** 70),
        ("rrb_z3_z2_inversion.json", "phi[1][2]", ("phi", 1, 2), 2 ** 63),
        ("rrb_z3_z2_inversion.json", "R[1]", ("R", 1), -2 ** 63 - 1),
        ("module_trivial_z2.json", "nu[1][1]", ("nu", 1, 1), 2 ** 64),
    ])
    def test_integer_past_int64(self, tmp_path, fixture, path, keys, value):
        # Python's JSON reader makes any integer; numpy's int64 cannot hold it.
        obj = json.loads((F / fixture).read_text())
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        bad = tmp_path / fixture
        bad.write_text(json.dumps(obj))
        proc = run_cli("validate", bad)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"parse error: {path}: integer {value} is outside int64"]

    def test_pair_image_past_int64(self, tmp_path):
        pair = json.loads((F / "pair_z9_twist.json").read_text())
        pair["theta"]["psi"][2] = 2 ** 63
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        proc = run_cli("inducible", F / "ext_z9.json", path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"parse error: theta.psi[2]: integer {2 ** 63} is outside int64"]

    def test_enumerate_phi_past_int64(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2], [0, 2, -2 ** 70]]))
        proc = run_cli("enumerate", F / "group_z3.json", F / "group_z2.json", phi)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"parse error: phi[1][2]: integer {-2 ** 70} is outside int64"]

    def test_int64_bounds_themselves_are_integers(self, tmp_path):
        # -2**63 and 2**63 - 1 pass the parser and fail as table entries.
        for value in (-2 ** 63, 2 ** 63 - 1):
            group = tmp_path / "group.json"
            group.write_text(json.dumps({"table": [[0, 1], [1, value]]}))
            proc = run_cli("validate", group)
            assert proc.returncode == 2
            assert "NotClosed: entry at (1, 1) out of range" in proc.stdout


class TestGroupPayloadChecks:
    """Permutation degrees are checked before any permutation is built."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_degree_is_parse_error(self, tmp_path, fmt):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"degree": -1, "generators": []}))
        proc = run_cli("validate", group, "--format", fmt)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "parse error: degree:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_generators_is_trivial_at_any_degree(self, tmp_path, fmt):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"degree": 10_000_000, "generators": []}))
        proc = run_cli("validate", group, "--format", fmt)
        assert proc.returncode == 0
        if fmt == "json":
            assert json.loads(proc.stdout) == {"kind": "group", "valid": True}
        else:
            assert proc.stdout == "group: valid\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_generator_of_wrong_length_is_not_closed(self, tmp_path, fmt):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"degree": 10_000_000, "generators": [[1, 0]]}))
        proc = run_cli("validate", group, "--format", fmt)
        assert proc.returncode == 2
        if fmt == "json":
            payload = json.loads(proc.stdout)
            assert (payload["code"], payload["witness"]) == ("NotClosed", [0, 2])
        else:
            assert "NotClosed: generator 0 has 2 entries, not the degree 10000000" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_entry_of_a_long_generator_is_named(self, tmp_path, fmt):
        # The verdict names the generator and its entry, not the whole generator.
        gen = list(range(100_000))
        gen[70_000] = 5
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"degree": 100_000, "generators": [gen]}))
        proc = run_cli("validate", group, "--format", fmt)
        assert proc.returncode == 2
        assert len(proc.stdout) < 200
        if fmt == "json":
            payload = json.loads(proc.stdout)
            assert (payload["code"], payload["witness"]) == ("NotClosed", [0, 70_000])
        else:
            assert "NotClosed: generator 0: entry 70000 = 5 repeats an earlier entry" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_order_mismatch_names_order(self, tmp_path, fmt):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"name": "Z2", "order": 3, "table": [[0, 1], [1, 0]]}))
        proc = run_cli("validate", group, "--format", fmt)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "parse error: order: 3 does not match the table size 2" in proc.stderr


class TestValidateCommand:
    def test_all_valid_fixtures(self):
        for name in ("group_z2.json", "group_klein_perm.json", "group_s3_perm.json",
                     "rrb_z2_trivial_id.json", "rrb_z3_z2_inversion.json",
                     "rrb_z4_z2_inv_parity.json", "module_trivial_z2.json",
                     "module_z4_parity.json", "ext_product_z2.json",
                     "ext_built_nontrivial_z2.json", "ext_z4_carry.json",
                     "ext_z9.json", "ext_s3.json", "ext_z4_z4.json"):
            proc = run_cli("validate", F / name)
            assert proc.returncode == 0, (name, proc.stdout, proc.stderr)

    def test_json_format_reports_kind(self):
        proc = run_cli("validate", F / "ext_z9.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload == {"kind": "extension", "valid": True}


class TestEnumerateCommand:
    def test_z3_z2_inversion(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
        proc = run_cli("enumerate", F / "group_z3.json", F / "group_z2.json",
                       phi, "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1
        assert payload["operators"] == [[0, 0, 0]]

    def test_zero_operator_always_listed(self, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[0, 1], [0, 1]]))
        proc = run_cli("enumerate", F / "group_z2.json", F / "group_z2.json",
                       phi, "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["count"] == 2
        assert [0, 0] in payload["operators"]


class TestCohomologyCommand:
    def test_trivial_module_factors(self):
        proc = run_cli("cohomology", F / "module_trivial_z2.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["h2"] == [2, 2, 2, 2]
        assert payload["z2"] == [2, 2, 2, 2]
        assert payload["b2"] == []
        assert payload["orders"] == {"z1": 4, "z2": 16, "b2": 1, "h2": 16}

    def test_one_point_quotient_all_trivial(self):
        proc = run_cli("cohomology", F / "module_one_point.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["orders"] == {"z1": 1, "z2": 1, "b2": 1, "h2": 1}

    def test_representative_dump(self):
        proc = run_cli("cohomology", F / "module_trivial_z2.json",
                       "--format", "json", "--reps")
        payload = json.loads(proc.stdout)
        assert len(payload["witnesses"]) == 16


class TestWellsCommand:
    def test_z9_report(self):
        proc = run_cli("wells", F / "ext_z9.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert all(payload["exactness"].values())
        assert len(payload["pairs"]) == 4
        verdicts = sorted((p["omega"], p["inducible"]) for p in payload["pairs"])
        assert verdicts == [([0], True), ([0], True), ([1], False), ([1], False)]


class TestWellsSplitFixture:
    def test_split_extension_every_pair_lifts(self):
        proc = run_cli("wells", F / "ext_product_z2.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert all(payload["exactness"].values())
        for rec in payload["pairs"]:
            assert rec["in_C"] and rec["inducible"]


class TestWellsBridgingFixture:
    def test_nonzero_bridging_map_report(self):
        proc = run_cli("wells", F / "ext_z9_mul4.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert all(payload["exactness"].values())
        in_c = [rec for rec in payload["pairs"] if rec["in_C"]]
        assert len(in_c) == 4 and len(payload["pairs"]) == 8


class TestInducibleCommand:
    def test_identity_pair(self):
        proc = run_cli("inducible", F / "ext_z9.json", F / "pair_z9_identity.json",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["inducible"] and payload["deciders_agree"]
        assert payload["witness"]["psi"] == list(range(9))

    def test_twist_pair_obstructed(self):
        proc = run_cli("inducible", F / "ext_z9.json", F / "pair_z9_twist.json",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["in_C"] is True
        assert payload["inducible"] is False
        assert payload["inducible_by_module_criterion"] is False
        assert payload["witness"] is None

    def test_double_inversion_pair_lifts(self):
        proc = run_cli("inducible", F / "ext_z9.json", F / "pair_z9_both.json",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["inducible"] is True
        assert payload["witness"] is not None

    def test_malformed_pair_is_semantic_error(self, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"psi": {"psi": [0, 1, 1], "eta": [0]},
                                    "theta": {"psi": [0, 1, 2], "eta": [0]}}))
        proc = run_cli("inducible", F / "ext_z9.json", pair)
        assert proc.returncode == 2


class TestDeterminism:
    COMMANDS = [
        ("validate", F / "ext_z9.json"),
        ("cohomology", F / "module_trivial_z2.json", "--reps"),
        ("cohomology", F / "module_z4_parity.json"),
        ("wells", F / "ext_z9.json"),
        ("inducible", F / "ext_z9.json", F / "pair_z9_both.json"),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_runs_byte_identical(self, fmt):
        for cmd in self.COMMANDS:
            args = [*cmd, "--format", fmt]
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout, cmd
            assert first.stderr == second.stderr
