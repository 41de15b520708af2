"""What a CLI job runs: C-level numpy only, and a verdict for any input.

Each job computes one piece of the Wells-type sequence on a desk-scale
input, so about half its time goes to first calls.  A numpy function
written in Python (``np.argmax``, ``np.ix_``, ``np.array_equal``, ...)
costs several times more on its first call in a forked process than the
ndarray method or indexing form that does the same work in C (see the
README).  The job path therefore enters no numpy Python frame except the
reductions behind the ndarray methods (``_methods.py``) and the dispatchers
of numpy's C functions (``multiarray.py``).

The mutation fuzzer edits the committed fixtures at random and runs the
commands on them: every run must exit with one of the CLI's codes, raise
nothing out of ``cli.main`` and, when it prints JSON, print valid JSON.
The refusals it reaches keep to C-level numpy as well.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR
from rrbgroups import cli

F = FIXTURE_DIR
NUMPY_DIR = os.path.dirname(np.__file__)
# numpy/core on numpy 1.x, numpy/_core on 2.x.
ALLOWED = {os.path.join(NUMPY_DIR, core, name)
           for core in ("core", "_core") for name in ("_methods.py", "multiarray.py")}


def _run(argv):
    """(exit code, stdout, the numpy Python functions outside ALLOWED that
    it enters) of ``cli.main(argv)``, stderr discarded."""
    out, entered = io.StringIO(), set()

    def profile(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and path.startswith(NUMPY_DIR + os.sep) and path not in ALLOWED:
            entered.add(f"{os.path.relpath(path, NUMPY_DIR)}:{frame.f_code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(x) for x in argv])
    finally:
        sys.setprofile(previous)
    return code, out.getvalue(), entered


PAIRS = sorted(F.glob("pair_z9_*.json"))
GUARDED = ([["cohomology", F / "module_z4_parity.json", "--reps"], ["wells", F / "ext_z9.json"]]
           + [["inducible", F / "ext_z9.json", p] for p in PAIRS]
           + [["validate", p] for p in sorted(F.glob("*.json"))])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", GUARDED, ids=[" ".join(
    os.path.basename(str(x)) for x in argv) for argv in GUARDED])
def test_job_path_enters_only_c_level_numpy(argv, fmt):
    assert not _run([*argv, "--format", fmt])[2]


def test_enumerate_enters_only_c_level_numpy(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
    argv = ["enumerate", F / "group_z3.json", F / "group_z2.json", phi, "--format", "json"]
    assert not _run(argv)[2]


def test_guard_sees_python_level_numpy(monkeypatch):
    # The guard flags a Python-level numpy function on the job path.
    monkeypatch.setattr(cli.serialize, "detect_payload",
                        lambda obj: "group" if np.argmax([0, 1]) else "?")
    entered = _run(["validate", F / "group_z2.json"])[2]
    assert any(name.endswith("fromnumeric.py:argmax") for name in entered)


# -- mutation fuzzer ----------------------------------------------------------

FIXTURES = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(F.glob("*.json"))}
# Replacements for any value: bad ints, floats, bools, strings, null, empties.
REPLACEMENTS = [-1, 7, 2 ** 63, 2 ** 70, 0.5, 1.0, True, False, "x", "", None, [], {}]


def _nodes(value, path=()):
    """(path, value) of every node of a JSON tree, the root included."""
    yield path, value
    children = sorted(value.items()) if type(value) is dict else (
        enumerate(value) if type(value) is list else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(root, path, new):
    if not path:
        return new
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return root


def _edit(data, payload):
    """One random edit of a JSON tree: a node replaced, a key dropped, or a
    list truncated or extended."""
    path, node = data.draw(st.sampled_from(list(_nodes(payload))))
    kinds = ["replace"] + (["drop"] if type(node) is dict and node else []) + (
        ["truncate", "extend"] if type(node) is list and node else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "replace":
        return _replace(payload, path, copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS))))
    if kind == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "truncate":
        del node[-1]
    else:
        node.append(copy.deepcopy(node[-1]))
    return payload


def _commands(name, path):
    """The commands a mutated fixture is fed to, each in both formats."""
    runs = [["validate", path]]
    if name.startswith("module_"):
        runs.append(["cohomology", path, "--reps"])
    if name.startswith("ext_"):
        runs += [["wells", path], ["inducible", path, F / "pair_z9_twist.json"]]
    if name.startswith("pair_"):
        runs.append(["inducible", F / "ext_z9.json", path])
    return [[*argv, "--format", fmt] for argv in runs for fmt in ("text", "json")]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_fixtures_get_a_verdict(data):
    name = data.draw(st.sampled_from(sorted(FIXTURES)))
    payload = copy.deepcopy(FIXTURES[name])
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        payload = _edit(data, payload)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for argv in _commands(name, path):
            code, out, entered = _run(argv)
            assert code in (0, 1, 2, 3), argv
            assert not entered, (argv, entered)
            if code == 0:
                assert out, argv
            if out and argv[-1] == "json":
                json.loads(out)
