"""The benchmark's hooks into stslab still fit the library.

`perfbench/tracing.py` wraps each name in its SPANS table by class or
module dict.  A library refactor that renames or deletes one of them
would otherwise only show up as a crash of `perfbench/run.py --trace 1`.

The `closure` and `oracle` workloads' jobs check planes, predicate
verdicts, group orders and isomorphism verdicts with the benchmark's own
oracles, which share no code with stslab, so one pass of each runs here
too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    """Import perfbench/<name>.py, registered for this test only."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    missing = []
    for module, attr, *_ in _load(monkeypatch, "tracing").SPANS:
        owner = importlib.import_module(f"stslab.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def _run_workload(monkeypatch, tmp_path, setup_name: str) -> dict:
    """Run each job of one workload pass once; job name -> its check's message."""
    monkeypatch.setitem(sys.modules, "oracles", _load(monkeypatch, "oracles"))  # workloads imports it
    workloads = _load(monkeypatch, "workloads")
    state = {}
    failures = {}
    for job in getattr(workloads, setup_name)(1, str(tmp_path)):
        message = job.check(job.run(state))
        if message is not None:
            failures[job.name] = message
    return failures


def test_closure_workload_pass(monkeypatch, tmp_path):
    failures = _run_workload(monkeypatch, tmp_path, "setup_closure")
    assert not failures, failures


def test_oracle_workload_pass(monkeypatch, tmp_path):
    failures = _run_workload(monkeypatch, tmp_path, "setup_oracle")
    assert not failures, failures
