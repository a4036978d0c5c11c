"""The count of settable values in the package, pinned.

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
