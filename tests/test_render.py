"""Each CLI answer rendered once: the JSON writer against ``json.dumps``, and
``cohomology --reps`` from one stack of representatives against the
per-class output it replaced."""

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR
from rrbgroups import cli, cochain_complex, cohomology, modules
from rrbgroups.cohomology import CohomologyClass
from rrbgroups.modules import check_normalized
from rrbgroups.serialize import (_load_json, factor_system_to_json, factor_systems_to_json,
                                 load_module)

CATALOGUE = Path(__file__).parent.parent / "perfbench" / "catalogue" / "cohomology.json"


def _catalogue_modules() -> dict:
    with open(CATALOGUE, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    return {case["name"]: case["module"] for case in cases}


MODULES = {**{path.stem: json.loads(path.read_text())
              for path in sorted(FIXTURE_DIR.glob("module_*.json"))},
           **_catalogue_modules()}

INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
SCALARS = st.none() | st.booleans() | INT64 | st.text()
PAYLOADS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=5)
                        | st.dictionaries(st.text(), inner, max_size=5), max_leaves=40)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(PAYLOADS)
    @example({"b": [2 ** 63 - 1, -2 ** 63, 0, -1], "a": {"": [], "é\n\"\\": {}}})
    @example([[], {}, [[]], [{}], "", True, False, None, 1])
    @example({"tau1": [1, 2], "witness": [True, 1], "\U0001f600": "\x00\x1f "})
    def test_writer_is_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def old_representative_json(fs, nK: int, nL: int) -> dict:
    """The per-entry serializer that the stacked one replaced."""
    nA, nB = fs.shapes
    return {
        "shapes": [nA, nB, nK, nL],
        "tau1": [int(fs.tau1[a1, a2]) for a1 in range(1, nA) for a2 in range(1, nA)],
        "tau2": [int(fs.tau2[b1, b2]) for b1 in range(1, nB) for b2 in range(1, nB)],
        "rho": [int(fs.rho[a, b]) for a in range(1, nA) for b in range(1, nB)],
        "chi": [int(fs.chi[a]) for a in range(1, nA)],
    }


def old_cohomology_output(path: str, fmt: str) -> str:
    """``cohomology <path> --reps`` as it was built before: one FactorSystem
    per class, the per-entry serializer, ``json.dumps`` and the text lines
    formatted for both formats."""
    module = load_module(*_load_json(path))
    cx = cochain_complex(module)
    groups = {"z1": cx.z1, "z2": cx.z2, "b2": cx.b2, "h2": cx.h2}
    payload = {name: list(g.factors) for name, g in groups.items()}
    payload["orders"] = {name: g.order for name, g in groups.items()}
    lines = [f"{name}: factors {list(g.factors)} order {g.order}"
             for name, g in groups.items()]
    reps = []
    for coords in itertools.product(*map(range, cx.h2.factors)):
        cls = CohomologyClass(cx, coords)
        fs = cx.class_representative(cls)
        obj = old_representative_json(fs, module.K.order, module.L.order)
        assert factor_system_to_json(fs, module.K.order, module.L.order) == obj
        reps.append({"class": list(cls.coords), "representative": obj})
        lines.append(f"class {list(cls.coords)}: "
                     f"tau1 {fs.tau1.tolist()} tau2 {fs.tau2.tolist()} "
                     f"rho {fs.rho.tolist()} chi {fs.chi.tolist()}")
    payload["witnesses"] = reps
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in lines)


def cli_output(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    return out.getvalue()


class TestRepresentatives:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_reps_output_matches_the_per_class_build(self, tmp_path, name, fmt):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MODULES[name]))
        got = cli_output("cohomology", str(path), "--reps", "--format", fmt)
        assert got == old_cohomology_output(str(path), fmt)

    def test_reps_check_one_stack_and_build_no_factor_system(self, tmp_path, monkeypatch):
        # One normalization check of the whole stack of representatives per
        # call, and no FactorSystem per class.
        path = tmp_path / "module.json"
        path.write_text(json.dumps(MODULES["module_z4_parity"]))
        built, checked = [], []
        init = modules.FactorSystem.__init__
        monkeypatch.setattr(modules.FactorSystem, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(cohomology, "check_normalized",
                            lambda *stacks: checked.append(len(stacks[0]))
                            or check_normalized(*stacks))
        for fmt in ("text", "json"):
            cli_output("cohomology", str(path), "--reps", "--format", fmt)
        assert built == [] and checked == [4, 4]

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_one_row_cases(self, name):
        module = load_module(MODULES[name])
        cx = cochain_complex(module)
        coords = cx.h2_coords()
        assert coords.tolist() == [list(v) for v in itertools.product(*map(range, cx.h2.factors))]
        assert [list(c.coords) for c in cx.h2_classes()] == coords.tolist()
        stack = cx.class_representatives(coords)
        rows = factor_systems_to_json(stack, module.K.order, module.L.order)
        for i, cls in enumerate(cx.h2_classes()):
            if i == 256:
                break  # the largest H2 of the catalogue has 16,384 classes
            fs = cx.class_representative(cls)
            assert [x.tolist() for x in (fs.tau1, fs.tau2, fs.rho, fs.chi)] == \
                [x[i].tolist() for x in stack]
            assert factor_system_to_json(fs, module.K.order, module.L.order) == rows[i]
            assert cx.class_of(fs) == cls

    def test_normalization_is_checked_on_every_row(self):
        nA, nB = 3, 2
        arrays = [np.zeros((4, nA, nA), dtype=np.int64), np.zeros((4, nB, nB), dtype=np.int64),
                  np.zeros((4, nA, nB), dtype=np.int64), np.zeros((4, nA), dtype=np.int64)]
        check_normalized(*arrays)
        for block, at in ((0, (3, 0, 2)), (0, (3, 1, 0)), (1, (2, 0, 1)), (1, (2, 1, 0)),
                          (2, (1, 0, 1)), (2, (1, 2, 0)), (3, (3, 0))):
            bad = [x.copy() for x in arrays]
            bad[block][at] = 1
            with pytest.raises(ValueError, match="degenerate tuples"):
                check_normalized(*bad)
