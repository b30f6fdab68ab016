"""The package's modules reach each other through public names only: a
private name (one leading underscore) is read only in the module that binds
it, so a module's private helpers can change without breaking another.  And
one function owns each derivation: the one-step form of a system is solved
in ``dynamics.build_stacked`` and nowhere else in the response code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newsvar"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def bound_names(tree: ast.AST) -> set[str]:
    """Every name the module binds: functions, classes, assigned names and
    assigned attributes (``self._x = ...``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def private_reaches(path: Path) -> list[str]:
    """The private names ``path`` takes from another module: imported with
    ``from .x import _name``, or read as ``obj._name`` where the module
    binds no ``_name`` of its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = bound_names(tree)
    reaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            reaches += [f"{node.module}.{a.name}" for a in node.names if is_private(a.name)]
        elif isinstance(node, ast.Attribute) and is_private(node.attr) and node.attr not in own:
            reaches.append(ast.unparse(node))
    return reaches


def test_no_module_reads_another_modules_private_names():
    reaches = [(path.name, reach) for path in sorted(PACKAGE.glob("*.py")) for reach in private_reaches(path)]
    assert reaches == []


def linalg_solve_sites(path: Path) -> list[str]:
    """The top-level function (or ``<module>``) around each use of
    ``np.linalg.inv`` or ``np.linalg.solve`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        owners += [
            owner
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and node.attr in ("inv", "solve")
            and ast.unparse(node.value) == "np.linalg"
        ]
    return owners


def test_one_step_form_is_solved_in_build_stacked_alone():
    # every response, stationarity verdict and bootstrap simulation reads
    # the one-step form that build_stacked solves, one inverse and two solves
    assert linalg_solve_sites(PACKAGE / "dynamics.py") == ["build_stacked"] * 3
    assert linalg_solve_sites(PACKAGE / "bootstrap.py") == []
