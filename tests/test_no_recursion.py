"""No library function calls itself: a valid input of any size must not
exhaust the interpreter's call stack."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stardecomp"


def self_calls(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func.name
                ):
                    yield func.name, node.lineno


def test_no_function_calls_itself_by_name():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, line in self_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_recursion():
    tree = ast.parse("def f(n):\n    def g(m):\n        return g(m - 1)\n    return f(n - 1)\n")
    assert sorted(name for name, _ in self_calls(tree)) == ["f", "g"]
