"""The paper-reference code stays off the product path, and no module
is an orphan.

:mod:`repro.reference` holds the literal calculus and the Figure 3
rule engine.  Tests and the experiment index use it; the
solve/serve/store path must not.  Checked two ways: statically, over
every import statement of every product module, and dynamically, over
what the product entry points actually load.

Every other module must be reached by import statements from the CLI,
a script, an experiment row or ``perfbench``: code that only its own
tests and a package's re-export reach is code nothing runs.
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(repro.__file__)
REFERENCE = os.path.join(SRC, "reference")
ROOT = os.path.dirname(os.path.dirname(SRC))

#: Directories whose every ``.py`` is a root of the orphan scan, less
#: the ``perfbench`` tests.  Examples and tests are not roots.
ROOT_DIRS = ("scripts", "benchmarks", "perfbench")
NOT_ROOTS = (os.path.join(ROOT, "perfbench", "tests"),)

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


def _module_paths():
    """``{dotted name: path}`` for every module under ``src/repro``; a
    package maps to its ``__init__.py``."""
    modules = {}
    base = os.path.dirname(SRC)
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in files:
            if not name.endswith(".py"):
                continue
            parts = os.path.relpath(os.path.join(root, name), base)[:-3]
            parts = parts.split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = os.path.join(root, name)
    return modules


def _root_paths():
    yield os.path.join(SRC, "__main__.py")
    for directory in ROOT_DIRS:
        for root, dirs, files in os.walk(os.path.join(ROOT, directory)):
            dirs[:] = sorted(
                d for d in dirs
                if d != "__pycache__" and os.path.join(root, d) not in NOT_ROOTS
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _is_package(path):
    return os.path.basename(path) == "__init__.py"


def _resolve(name, modules):
    """The module an imported dotted ``name`` uses, or None.

    A module is itself, and so is ``module.Name``.  ``package.Name``
    follows the package's own import of ``Name`` to the module that
    defines it; a bare package is no use of anything it re-exports.
    """
    path = modules.get(name)
    if path is not None:
        return None if _is_package(path) else name
    package, _, attr = name.rpartition(".")
    path = modules.get(package)
    if path is None:
        return None
    if not _is_package(path):
        return package
    for bound in _imported_names(path):
        if bound.rpartition(".")[2] == attr and bound != name:
            return _resolve(bound, modules)
    return None


def test_every_module_is_reached_from_an_entry_point():
    modules = _module_paths()
    reached = {"repro.__main__"}
    stack = list(_root_paths())
    assert os.path.join(ROOT, "perfbench", "run.py") in stack
    while stack:
        for name in _imported_names(stack.pop()):
            target = _resolve(name, modules)
            if target is not None and target not in reached:
                reached.add(target)
                stack.append(modules[target])
    orphans = sorted(
        name for name, path in modules.items()
        if not _is_package(path) and not _is_reference(name)
        and name not in reached
    )
    assert orphans == []
