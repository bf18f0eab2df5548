"""bench/traced_cli.py wraps package functions by name, looked up in their
owner's __dict__: each one must still be there, or traced benchmark runs
break although no package test fails.  One traced request also runs end to
end, which checks the spans a regions request records."""
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


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


def test_traced_regions_request_fits_only_the_base(tmp_path):
    # region formulas come from the base quasipolynomial by shift-and-add:
    # one fit per request, however many regions there are
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_file), "regions", "--n", "24", "--k", "4"],
        env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans_file.read_text())["spans"]]
    assert "quasi.region_decomposition" in names
    assert names.count("quasi.fit_quasipolynomial") == 1
