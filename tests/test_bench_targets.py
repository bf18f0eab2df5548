"""bench/traced_cli.py wraps package functions by name, looked up in their
owner's __dict__: each one must still be there, or traced benchmark runs
break although no package test fails."""
import importlib.util
import pathlib

TRACED_CLI = pathlib.Path(__file__).resolve().parent.parent / "bench" / "traced_cli.py"


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    traced = load_traced_cli()
    targets = traced._targets()
    assert [name for owner, attribute, name, _ in targets if attribute not in owner.__dict__] == []
    found = {name: owner.__dict__[attribute] for owner, attribute, name, _ in targets}
    assert [name for name in traced._CACHED if not hasattr(found[name], "cache_info")] == []
