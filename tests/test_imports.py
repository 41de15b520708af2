"""Every module-level import in the library is read somewhere in its
module, and importing the library leaves the command line front end
unloaded."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rrbgroups"


def imported_names(tree: ast.Module) -> dict:
    """Binding name -> line of each module-level import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: imported but never read: {unused}"


def test_library_import_loads_no_cli():
    # What a CLI call pays for its import; the front end and argparse come
    # with ``rrbgroups.cli``, not with the library.
    probe = "import sys, rrbgroups; print(sorted({'rrbgroups.cli', 'argparse'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=SRC.parent, check=True)
    assert proc.stdout == "[]\n"


def test_permutation_groups_load_without_numpy_ma():
    # On numpy 2, np.unique without a return_* flag imports numpy.ma (about
    # 12 ms) the first time it runs; no closure, subgroup or quotient needs it.
    probe = """
import sys
from rrbgroups.groups import quotient_group, subgroup_closure
from rrbgroups.serialize import _load_json, load_group
for name in ("group_s3_perm.json", "group_klein_perm.json"):
    G = load_group(*_load_json("rrbgroups/fixtures/" + name))
    for gens in ([0], [G.order - 1], range(G.order)):
        N = subgroup_closure(G, gens)
        if len(N) in (1, G.order // 2, G.order):  # index at most 2, so normal
            quotient_group(G, N)
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=SRC.parent, check=True)
    assert proc.stdout == "False\n"
