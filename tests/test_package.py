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
one module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
    """Where ``nodes`` assign to, or into, an attribute named ``cells``, ``alias`` or ``kept``."""
    for name, node in nodes:
        target = node.value if isinstance(node, ast.Subscript) else node
        if (
            isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            and isinstance(target, ast.Attribute)
            and target.attr in ("cells", "alias", "kept")
        ):
            yield f"{name}:{node.lineno}"


def test_only_the_text_module_writes_text_state():
    others = ((name, node) for name, node in package_nodes() if name != "text.py")
    assert list(text_state_writes(others)) == []
