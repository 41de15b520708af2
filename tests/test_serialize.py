"""JSON schemas: roundtrips, path references, malformed payloads."""

import json

import pytest

from rrbgroups import trivial_rrb, zero_factor_system
from rrbgroups.extensions import extract_module
from rrbgroups.serialize import (
    ParseError,
    detect_payload,
    extension_to_json,
    factor_system_to_json,
    group_to_json,
    load_extension,
    load_factor_system,
    load_group,
    load_module,
    load_pair,
    load_rrb,
    module_to_json,
    pairs_to_json,
    rrb_to_json,
)
from conftest import FIXTURE_DIR
from oracles import _pair_key


class TestGroupSchema:
    def test_table_roundtrip(self, groups):
        for name in ("z2", "z4", "s3"):
            G = groups[name]
            assert load_group(group_to_json(G)) == G

    def test_permutation_generators(self):
        obj = {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]], "name": "S3"}
        G = load_group(obj)
        assert G.order == 6 and not G.is_abelian

    def test_order_mismatch(self):
        with pytest.raises(ParseError):
            load_group({"order": 3, "table": [[0, 1], [1, 0]]})

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            load_group({"order": 2})

    def test_fixture_files_parse(self):
        for name in ("group_z2.json", "group_klein_perm.json", "group_s3_perm.json"):
            G = load_group(str(FIXTURE_DIR / name))
            assert G.order in (2, 4, 6)


class TestStructureSchema:
    def test_roundtrip(self, ext_corpus):
        for ext in ext_corpus.values():
            for rrb in (ext.kernel, ext.total, ext.quotient):
                again = load_rrb(rrb_to_json(rrb))
                assert again == rrb

    def test_path_reference_resolves_relative_to_file(self):
        rrb = load_rrb(str(FIXTURE_DIR / "rrb_z2_trivial_id.json"))
        assert rrb.H.order == 2 and rrb.R.tolist() == [0, 1]

    def test_permutation_group_inline_in_structure(self):
        # Either group form is accepted wherever a group is expected.
        obj = {
            "H": {"degree": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
            "G": {"order": 2, "table": [[0, 1], [1, 0]]},
            "phi": [[0, 1, 2, 3], [0, 1, 2, 3]],
            "R": [0, 0, 0, 0],
        }
        rrb = load_rrb(obj)
        assert rrb.H.order == 4 and rrb.G.order == 2

    def test_chained_path_references(self, tmp_path):
        # extension file -> structure file -> group file, resolved relative
        # to each referencing file in turn.
        import shutil
        for name in ("group_z2.json",):
            shutil.copy(FIXTURE_DIR / name, tmp_path / name)
        (tmp_path / "kern.json").write_text(json.dumps({
            "H": "group_z2.json", "G": "group_z2.json",
            "phi": [[0, 1], [0, 1]], "R": [0, 0]}))
        (tmp_path / "quot.json").write_text(json.dumps({
            "H": "group_z2.json", "G": "group_z2.json",
            "phi": [[0, 1], [0, 1]], "R": [0, 0]}))
        from rrbgroups import product_extension, trivial_rrb, cyclic_group
        ext = product_extension(trivial_rrb(cyclic_group(2), cyclic_group(2)),
                                trivial_rrb(cyclic_group(2), cyclic_group(2)))
        payload = extension_to_json(ext)
        payload["kernel"] = "kern.json"
        payload["quotient"] = "quot.json"
        (tmp_path / "ext.json").write_text(json.dumps(payload))
        loaded = load_extension(str(tmp_path / "ext.json"))
        assert loaded == ext

    def test_detect_payload(self, groups):
        r = trivial_rrb(groups["z2"], groups["z2"])
        assert detect_payload(group_to_json(groups["z2"])) == "group"
        assert detect_payload(rrb_to_json(r)) == "structure"


class TestExtensionAndModuleSchema:
    def test_extension_roundtrip(self, ext_corpus):
        for name in ("product_z2", "z9", "parity_twisted", "z4_klein_f"):
            ext = ext_corpus[name]
            again = load_extension(extension_to_json(ext))
            assert again == ext

    def test_module_roundtrip(self, module_corpus):
        for name in ("trivial_z2", "from_z9_mul4", "from_parity_zero"):
            module = module_corpus[name]
            again = load_module(module_to_json(module))
            assert again == module

    def test_factor_system_roundtrip(self, ext_corpus):
        from rrbgroups.extensions import extract_factor_system

        for name in ("z9", "z4_z4_diag", "z4_klein_f"):
            module = extract_module(ext_corpus[name])
            fs = extract_factor_system(ext_corpus[name])
            obj = factor_system_to_json(fs, module.K.order, module.L.order)
            assert load_factor_system(obj, module) == fs

    def test_factor_system_flat_layout_skips_degenerates(self, module_corpus):
        module = module_corpus["trivial_z2"]
        fs = zero_factor_system(module)
        obj = factor_system_to_json(fs, 2, 2)
        assert obj["shapes"] == [2, 2, 2, 2]
        assert len(obj["tau1"]) == 1 and len(obj["chi"]) == 1

    def test_factor_system_shape_mismatch(self, module_corpus):
        module = module_corpus["trivial_z2"]
        with pytest.raises(ParseError):
            load_factor_system({"shapes": [3, 2, 2, 2], "tau1": [], "tau2": [],
                                "rho": [], "chi": []}, module)

    def test_one_cochain_roundtrip(self, module_corpus):
        from rrbgroups.serialize import load_one_cochain, one_cochain_to_json
        from rrbgroups import OneCochain

        module = module_corpus["from_parity_zero"]
        kappa = OneCochain([0, 1, 0, 1], [0, 1])
        obj = one_cochain_to_json(kappa, module.A.order, module.B.order)
        assert load_one_cochain(obj, module) == kappa

    @pytest.fixture
    def module_k4_l2(self, groups):
        """A = B = Z3 acting trivially on K = Z4 and L = Z2."""
        from rrbgroups import RRBModule, trivial_action

        quotient = trivial_rrb(groups["z3"], groups["z3"])
        kernel = trivial_rrb(groups["z4"], groups["z2"])
        return RRBModule(quotient, kernel, trivial_action(quotient, kernel))

    @pytest.mark.parametrize("key,index,value,message", [
        ("tau1", 3, 4, "tau1[3]: entry 4 is outside K of order 4"),
        ("tau1", 0, -1, "tau1[0]: entry -1 is outside K of order 4"),
        ("tau2", 1, 2, "tau2[1]: entry 2 is outside L of order 2"),
        ("rho", 2, -1, "rho[2]: entry -1 is outside K of order 4"),
        ("chi", 1, 2, "chi[1]: entry 2 is outside L of order 2"),
        ("kappa1", 1, -1, "kappa1[1]: entry -1 is outside K of order 4"),
        ("kappa2", 0, 2, "kappa2[0]: entry 2 is outside L of order 2"),
    ])
    def test_entry_outside_its_group(self, module_k4_l2, key, index, value, message):
        # A wrapped entry would read as another element: -1 as |K| - 1.
        from rrbgroups.serialize import load_one_cochain

        one = key.startswith("kappa")
        obj = ({"shapes": [3, 3], "kappa1": [3, 3], "kappa2": [1, 1]} if one else
               {"shapes": [3, 3, 4, 2], "tau1": [3] * 4, "tau2": [1] * 4, "rho": [3] * 4,
                "chi": [1, 1]})
        load = load_one_cochain if one else load_factor_system
        load(obj, module_k4_l2)  # the largest element of each group is inside
        obj[key][index] = value
        with pytest.raises(ParseError) as err:
            load(obj, module_k4_l2)
        assert str(err.value) == message

    def test_pair_roundtrip(self, ext_corpus):
        from rrbgroups.wells import WellsContext

        ext = ext_corpus["z9"]
        ctx = WellsContext(ext)
        stacks = ctx.pair_group.all
        written = pairs_to_json(stacks)
        assert len(written) == len(ctx.all_pairs) == len(stacks.psi1)
        for i, (obj, pair) in enumerate(zip(written, ctx.all_pairs)):
            again = load_pair(obj, ext.quotient, ext.kernel)
            assert _pair_key(again) == _pair_key(pair) == tuple(tuple(x[i].tolist()) for x in stacks)

    def test_bad_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_group(str(bad))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_group("/nonexistent/nowhere.json")
