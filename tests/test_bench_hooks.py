"""The benchmark's hooks into stslab still fit the library.

`perfbench/tracing.py` wraps each name in its SPANS table by class or
module dict.  A library refactor that renames or deletes one of them
would otherwise only show up as a crash of `perfbench/run.py --trace 1`.

The `closure` and `oracle` workloads' jobs check planes, predicate
verdicts, group orders and isomorphism verdicts with the benchmark's own
oracles, which share no code with stslab, so one pass of each runs here
too.
"""

import ast
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


def _called_names(node) -> set:
    """The names a function body calls: f(...) gives f, x.f(...) gives f."""
    out = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            fn = call.func
            out.add(fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None))
    return out


def test_no_two_worker_step_reaches_a_traced_name(monkeypatch):
    """The tracer keeps one span stack for the process, so no function the
    helper thread runs (a nested `step` handed to system._steps) may call
    a traced function, directly or through the module's own functions.  A
    traced method counts by its name, and a traced __init__ by its class."""
    traced = set()
    for _, attr, *_ in _load(monkeypatch, "tracing").SPANS:
        *classes, name = attr.split(".")
        traced.add(classes[-1] if name == "__init__" else name)
    reached = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "stslab").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        steps = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "step"]
        for step in steps:
            seen, todo = set(), [step]
            while todo:
                names = _called_names(todo.pop()) - seen
                seen |= names
                todo += [functions[name] for name in names if name in functions]
            reached[f"{path.name}:{step.lineno}"] = seen & traced
    assert len(reached) >= 6, reached  # the scan, key build, unpack, writer, parser, nonspace
    assert not any(reached.values()), reached


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
