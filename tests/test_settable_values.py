"""The count of settable values in the package, pinned, and a caller for
every public name.

A settable value is a defaulted parameter of a public function or method
(a name without a leading underscore) or of an ``__init__``, or a
defaulted field of a dataclass that ``__init__`` takes, counted from the
AST of every module.  A change that adds or removes a knob edits the pin
here in plain view.
"""

import ast
from pathlib import Path

import sybilscatter

SETTABLE_VALUES = 69

# Exported for the gradient check of acceptance criterion 5, which holds
# the trainer's gradient to finite differences of its objective; no
# program calls them.
TEST_ONLY_EXPORTS = {"weighted_gradient", "weighted_log_likelihood"}


def _takes_no_init(value):
    """True for a ``field(..., init=False)`` default."""
    return (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords))


def _settable(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__init__" or not node.name.startswith("_"):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and not _takes_no_init(stmt.value) for stmt in node.body)
    return count


def test_settable_value_count_is_pinned():
    package = Path(sybilscatter.__file__).parent
    total = sum(_settable(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(package.glob("*.py")))
    assert total == SETTABLE_VALUES


def _used_names(tree):
    """Every name a module reads, every attribute it takes and every name
    it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_export_has_a_caller():
    package = Path(sybilscatter.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    root = Path(__file__).resolve().parents[1]
    callers = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    callers += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    used = set().union(*(_used_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in callers))
    assert sorted(exports - used) == sorted(TEST_ONLY_EXPORTS)
