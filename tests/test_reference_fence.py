"""The paper-reference code stays off the product path.

:mod:`repro.reference` holds the literal calculus and the Figure 3
rule engine.  Tests and the experiment index use it; the
solve/serve/store path must not.  Checked two ways: statically, over
every import statement of every product module, and dynamically, over
what the product entry points actually load.
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(repro.__file__)
REFERENCE = os.path.join(SRC, "reference")

#: The product entry points: the library, the CLI, the daemon and its
#: workers, the SMT front end and the warm store.
ENTRY_POINTS = (
    "repro", "repro.__main__", "repro.serve.daemon", "repro.serve.worker",
    "repro.solver.smt", "repro.solver.store",
)


def _product_modules():
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(
            d for d in dirs
            if d != "__pycache__" and os.path.join(root, d) != REFERENCE
        )
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _imported_names(path):
    """Every module an import statement in ``path`` names, at any
    nesting (function-local imports count too)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield "%s.%s" % (node.module, alias.name)


def _is_reference(name):
    return name == "repro.reference" or name.startswith("repro.reference.")


def test_no_product_module_imports_reference():
    modules = list(_product_modules())
    assert os.path.join(SRC, "serve", "worker.py") in modules
    offenders = [
        (os.path.relpath(path, SRC), name)
        for path in modules
        for name in _imported_names(path)
        if _is_reference(name)
    ]
    assert offenders == []


def test_product_entry_points_load_no_reference_module():
    code = (
        "import sys\n"
        "for name in %r:\n"
        "    __import__(name)\n"
        "print('\\n'.join(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'repro')))\n"
        % (ENTRY_POINTS,)
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        stdout=subprocess.PIPE, universal_newlines=True,
    ).stdout.split()
    assert "repro.derivatives.condtree" in loaded
    assert [m for m in loaded if _is_reference(m)] == []
