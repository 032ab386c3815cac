"""Package modules use only each other's public names, and no runtime dependency but numpy."""

import ast
import inspect
import sys
from pathlib import Path

import oqsim
from oqsim import circuit, engine, qmath

MODULES = sorted(Path(oqsim.__file__).parent.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def private_imports(source: str):
    """(line, module, name) for each underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            sibling = node.level > 0 or module == "oqsim" or module.startswith("oqsim.")
            if sibling:
                found += [
                    (node.lineno, module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_guard_catches_a_private_import():
    text = "from .engine import Trajectory, _reduced\nfrom oqsim.qmath import _x\n"
    assert private_imports(text) == [(1, "engine", "_reduced"), (2, "oqsim.qmath", "_x")]
    assert private_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {"engine", "analysis", "cli"} <= SIBLINGS
    bad = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {name: hits for name, hits in bad.items() if hits} == {}


def unused_imports(source: str):
    """(line, name) for each imported name the module never uses.

    ``__future__`` imports and an alias whose line carries ``# noqa: F401``
    (a name kept for importers) are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append((alias.lineno, name))
    return found


def test_guard_catches_an_unused_import():
    text = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .qmath import (\n    a,\n    b,  # noqa: F401  kept for importers\n    c,\n)\n"
        "np.eye(a)\n"
    )
    assert unused_imports(text) == [(2, "os"), (7, "c")]


def test_every_module_uses_what_it_imports():
    bad = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in MODULES
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in bad.items() if hits} == {}


def test_every_test_module_uses_what_it_imports():
    assert "conftest.py" in {path.name for path in TESTS}
    bad = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in TESTS}
    assert {name: hits for name, hits in bad.items() if hits} == {}


# Classes and step builders: the dense references never run the code they check.
REFERENCE_IMPORTS = {
    "GateOp", "StepCircuit", "DensityMatrix", "Wire", "KrausChannel", "MemorySpec",
    "build_markovian_step", "build_nonmarkovian_step", "build_sequential_step", "pauli_channel",
}


def kernel_imports(source: str):
    """(line, name) for each oqsim import outside :data:`REFERENCE_IMPORTS`.

    A whole module (``import oqsim.circuit``) counts, since every kernel is reachable through it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "oqsim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oqsim":
            found += [(node.lineno, a.name) for a in node.names if a.name not in REFERENCE_IMPORTS]
    return found


def test_guard_catches_a_kernel_import():
    text = (
        "import numpy as np\nfrom oqsim.circuit import GateOp, compile_step\n"
        "import oqsim.engine as eng\nfrom oqsim.qmath import Wire, partial_trace\n"
        "from oqsim import circuit\n"
    )
    assert kernel_imports(text) == [
        (2, "compile_step"), (3, "oqsim.engine"), (4, "partial_trace"), (5, "circuit"),
    ]


def test_the_dense_references_call_no_kernel():
    conftest = Path(__file__).parent / "conftest.py"
    assert kernel_imports(conftest.read_text(encoding="utf-8")) == []


def unused_privates(source: str):
    """(line, name) for each top-level ``_name`` a module defines but never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.startswith("_") and not name.startswith("__") and name not in read
        ]
    return found


def test_guard_catches_an_unused_private_name():
    text = (
        "_USED = 1\n_SPARE: int = 2\n__all__ = []\n\n"
        "def _helper():\n    return _USED\n\n"
        "class _Dead:\n    pass\n\n"
        "def public():\n    return _helper()\n"
    )
    assert unused_privates(text) == [(2, "_SPARE"), (8, "_Dead")]


def test_every_private_name_is_used_in_its_module():
    bad = {path.name: unused_privates(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: hits for name, hits in bad.items() if hits} == {}


def long_lines(source: str):
    """(line, length) for each line longer than 100 characters."""
    return [(n, len(line)) for n, line in enumerate(source.splitlines(), 1) if len(line) > 100]


def test_guard_catches_a_long_line():
    assert long_lines("x = 1\n" + "y" * 100 + "\n" + "z" * 101 + "\n") == [(3, 101)]


def test_every_module_line_is_at_most_100_characters():
    bad = {path.name: long_lines(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: hits for name, hits in bad.items() if hits} == {}


RUNTIME = set(sys.stdlib_module_names) | {"numpy", "oqsim"}  # numpy: the one runtime dependency


def foreign_imports(source: str):
    """(line, module) for each absolute import of a module outside :data:`RUNTIME`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in RUNTIME]
    return found


def test_guard_catches_a_foreign_import():
    text = (
        "import math\nimport numpy as np\nfrom scipy.linalg import blas\nfrom . import circuit\n"
        "from oqsim.qmath import Wire\nfrom numpy.linalg import qr\nimport os, pandas\n"
    )
    assert foreign_imports(text) == [(3, "scipy.linalg"), (7, "pandas")]


def test_every_module_imports_only_the_standard_library_numpy_and_siblings():
    bad = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: hits for name, hits in bad.items() if hits} == {}


COMPLEX_NAMES = {"complex", "complex128", "cdouble"}


def forced_complex(source: str):
    """(line, name) for each ``dtype=`` keyword or ``astype`` argument naming a complex type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            values = [node.value]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
            values = node.args[:1]
        else:
            continue
        names = [getattr(v, "id", None) or getattr(v, "attr", None) for v in values]
        found += [(node.lineno, n) for n in names if n in COMPLEX_NAMES]
    return sorted(found)


def test_guard_catches_a_forced_complex_dtype():
    text = (
        "a = np.eye(n, dtype=complex)\nb = np.empty(n, dtype=np.complex128)\n"
        "c = a.astype(np.cdouble)\nd = np.zeros(n, dtype=float if real else complex)\n"
        "e = np.empty(n, dtype=a.dtype).astype(float)\n"
    )
    assert forced_complex(text) == [(1, "complex"), (2, "complex128"), (3, "cdouble")]


def test_the_run_path_takes_its_dtype_from_its_data():
    """A real program and real states run in float64: no step of the run path forces complex."""
    run_path = (circuit.compile_step, circuit.run_compiled, engine.evolve, qmath.partial_trace_matrix)
    bad = {f.__name__: forced_complex(inspect.getsource(f)) for f in run_path}
    assert {name: hits for name, hits in bad.items() if hits} == {}


# perfbench/test_perfbench.py calls dataclasses.replace on these two, so they stay dataclasses;
# every other value type is a namedtuple, whose class costs no generated code at import.
DATACLASSES = {("engine.py", "StepRecord"), ("engine.py", "Trajectory")}


def dataclass_definitions(source: str):
    """(line, class) for each class decorated with ``dataclass`` or ``dataclasses.dataclass``,
    called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
                    found.append((node.lineno, node.name))
    return found


def test_guard_catches_a_dataclass():
    text = (
        "import dataclasses\nfrom dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n"
        "@functools.total_ordering\nclass D(NamedTuple):\n    x: int\n"
    )
    assert dataclass_definitions(text) == [(5, "A"), (8, "B"), (11, "C")]


def test_only_the_records_perfbench_replaces_are_dataclasses():
    found = {
        (path.name, name)
        for path in MODULES
        for _, name in dataclass_definitions(path.read_text(encoding="utf-8"))
    }
    assert found == DATACLASSES
