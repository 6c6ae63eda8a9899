"""The installed package holds only code that the compressor loads.

Test-only code (oracles, the rewriting lab) lives in ``tests/``.  A module
in ``src/slpcompress`` that ``import slpcompress.cli`` does not load is
dead weight for every user, so this test fails on it.  The package holds
no ``assert`` either: ``python -O`` strips them, so a runtime check must
raise.  Nor does it read an attribute named ``rules``: grammars are read
through ``Slp.counts`` and ``Slp.flat``, and ``Slp.rules`` is kept only for
the benchmark's reads (``tests/test_trace_names.py``).  Only ``text.py``
assigns to, or into, an attribute named ``cells``, ``alias`` or ``kept``,
so the checks that keep every text symbol in its working alphabet sit in
one module.  Every public top-level function or class is used by the
package or the benchmark, not by the tests alone.  No comparison sort runs
outside ``radix_argsort``: every key the compressor orders lies below a
bound that its phase fixes, so ``radix_argsort`` and ``rank_keys`` order it
in linear time.  Only ``text.py`` calls ``take`` or casts an index to
``intp``: reads and writes through a narrow index array go through
``text.gather`` and ``text.scatter``.  No module keeps an ``epoch``: a
stage detects stale positions by the identity of the cells or runs they
index.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROBE = """
import json, pkgutil, sys
import slpcompress.cli
import slpcompress
found = [m.name for m in pkgutil.iter_modules(slpcompress.__path__)]
print(json.dumps({
    "file": slpcompress.__file__,
    "found": found,
    "unloaded": [n for n in found if "slpcompress." + n not in sys.modules],
}))
"""


def test_cli_import_loads_every_package_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert Path(report["file"]).resolve().parent == SRC / "slpcompress"
    assert "cli" in report["found"]
    assert report["unloaded"] == []


def package_nodes():
    """Every syntax-tree node of the package, with its module's file name."""
    for path in sorted((SRC / "slpcompress").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_holds_no_assert_statements():
    found = [
        f"{name}:{node.lineno}" for name, node in package_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_reads_no_rules_attribute():
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "rules"
    ]
    assert found == []


def text_state_writes(nodes):
    """Where ``nodes`` assign to, or into, an attribute named ``cells``, ``alias``, ``kept`` or ``runs``."""
    for name, node in nodes:
        target = node.value if isinstance(node, ast.Subscript) else node
        if (
            isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            and isinstance(target, ast.Attribute)
            and target.attr in ("cells", "alias", "kept", "runs")
        ):
            yield f"{name}:{node.lineno}"


def test_only_the_text_module_writes_text_state():
    others = ((name, node) for name, node in package_nodes() if name != "text.py")
    assert list(text_state_writes(others)) == []


def names_used(tree):
    """Every name that ``tree`` reads, imports or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # the benchmark wraps functions by name


def test_every_public_definition_has_a_user_outside_the_tests():
    # A user is the defining module beyond the definition, another package
    # module (re-exports in ``__init__.py`` do not count) or the benchmark.
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted((SRC / "slpcompress").glob("*.py"))
        if path.name != "__init__.py"
    }
    benchmark = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        benchmark.update(names_used(ast.parse(path.read_text())))
    unused = []
    for name, tree in modules.items():
        used = set(benchmark)
        for other, other_tree in modules.items():
            if other != name:
                used.update(names_used(other_tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
                if node.name not in used and node.name not in names_used(rest):
                    unused.append(f"{name}:{node.name}")
    assert unused == []


COMPARISON_SORTS = {"argsort", "lexsort", "sort", "unique"}


def comparison_sort_calls(tree, name):
    """Where ``tree`` calls a comparison sort, outside the body of ``radix_argsort``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "radix_argsort":
            continue
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in COMPARISON_SORTS) or (
            isinstance(func, ast.Name) and func.id == "sorted"
        ):
            yield f"{name}:{node.lineno}"
        yield from comparison_sort_calls(node, name)


def test_package_sorts_only_through_radix_argsort():
    found = []
    for path in sorted((SRC / "slpcompress").glob("*.py")):
        found.extend(comparison_sort_calls(ast.parse(path.read_text()), path.name))
    assert found == []


def index_array_reads_and_epochs(tree, name):
    """Where ``tree`` takes or casts to ``intp`` outside ``text.py``, or names an ``epoch``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "epoch") or (
            isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "epoch"
        ):
            yield f"{name}:{node.lineno}"
        func = node.func if isinstance(node, ast.Call) else None
        if name != "text.py" and isinstance(func, ast.Attribute) and (
            func.attr == "take"
            or (func.attr == "astype" and node.args and ast.unparse(node.args[0]) == "np.intp")
        ):
            yield f"{name}:{node.lineno}"


def test_index_arrays_are_read_and_written_only_in_the_text_module():
    found = []
    for path in sorted((SRC / "slpcompress").glob("*.py")):
        found.extend(index_array_reads_and_epochs(ast.parse(path.read_text()), path.name))
    assert found == []
