"""The suite's own import rule: a helper that more than one test module needs
lives in oracles.py, so no test module imports another, and neither the
acceptance suite nor oracles.py imports hypothesis, so the checklist runs
where hypothesis is not installed."""
import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
NO_HYPOTHESIS = ("oracles.py", "test_acceptance.py")


def imported_modules(path):
    """The top-level name of each module that `path` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


def test_no_test_module_imports_another():
    found = [(path.name, module) for path in sorted(TESTS.glob("*.py"))
             for module in imported_modules(path)
             if module.startswith("test_")
             or (module == "hypothesis" and path.name in NO_HYPOTHESIS)]
    assert found == []
