"""Span tracing for the per-layer metrics.

`install(tracer)` wraps the stslab functions listed in SPANS.  A function
imported with `from .system import span` is a separate name in the
importing module, so every module-level name in every stslab module that
refers to a wrapped function is rebound, and methods are replaced on their
class.  Each call records a span: label, parent span, start, end, and an
optional count (rows built, triples read, planes found, ...).  Spans stay
in flat in-memory arrays and are summarised and written out when the run
ends.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time
from array import array

import numpy as np


def maxrss_mb() -> float:
    """Peak resident memory of this process so far, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    def __init__(self):
        self.labels: list = []
        self._ids: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("d")
        self.rss: dict = {}  # span id -> rise of the process peak RSS, MB
        self.stack = [-1]

    def label_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.labels)
            self.labels.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None, rss: bool = False):
        """`fn` recording one span per call; counter(args, result) -> count."""
        lid = self.label_id(name)
        label, parent, t0, t1 = self.label, self.parent, self.t0, self.t1
        count, stack, rss_of, clock = self.count, self.stack, self.rss, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(label)
            label.append(lid)
            parent.append(stack[-1])
            t1.append(0.0)
            count.append(0.0)
            stack.append(sid)
            before = maxrss_mb() if rss else 0.0
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if rss:
                rss_of[sid] = maxrss_mb() - before
            if counter is not None:
                count[sid] = counter(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span grouping one set-up or one job."""
        sid = len(self.label)
        self.label.append(self.label_id(name))
        self.parent.append(-1)
        self.t1.append(0.0)
        self.count.append(0.0)
        self.stack.append(sid)
        self.t0.append(time.perf_counter())
        try:
            yield
        finally:
            self.t1[sid] = time.perf_counter()
            self.stack.pop()


def _rows(args, out):
    return args[0].triples.shape[0]  # args[0] is the system being built


def _triples_in(args, out):
    return args[0].n_triples


def _triples_out(args, out):
    return out.n_triples


def _file_mb(args, out):
    return os.path.getsize(args[1]) / 1e6


def _grew(args, out):
    return 1.0 if out else 0.0


def _found(args, out):
    return len(out)


_BUILDERS = ("bose", "skolem", "base_sts", "pg_sts", "double", "direct_product",
             "embed_subsystem", "label_per_p7")

# (stslab module, attribute, span label, counter, record RSS rise).
# The builders (called by `cli construct`) and restrict get spans of their
# own only so that their time is not charged to a reported self time.  Hot
# helpers (perm.compose, iter_triples, ...) are left unwrapped.
SPANS = (
    ("system", "TripleSystem.__init__", "system.construct", _rows, False),
    ("system", "PartialTripleSystem.__init__", "system.construct", _rows, False),
    ("system", "validate_sts", "system.validate", _triples_in, False),
    ("system", "validate_pstss", "system.validate", _triples_in, False),
    ("system", "write_system", "system.write", _file_mb, True),
    ("system", "read_system", "system.read", _triples_out, True),
    ("system", "span", "system.span", None, False),
    ("system", "_SystemBase.pair_third", "system.pair_third", None, False),
    ("system", "restrict", "system.restrict", None, False),
    ("perm", "PermutationGroup.extend", "perm.extend", _grew, False),
    ("search", "automorphism_group", "search.aut", None, False),
    ("search", "are_isomorphic", "search.iso", None, False),
    ("search", "_canonical_labeling", "search.canon", None, False),
    ("search", "is_automorphism", "search.verify", None, False),
    ("constructions", "moore", "constructions.moore", _triples_out, True),
    ("constructions", "moore_variant_sigma", "constructions.moore", _triples_out, True),
    ("constructions", "is_pg2_pointed", "constructions.predicates", None, False),
    ("constructions", "is_pg3_2pointed", "constructions.predicates", None, False),
    ("constructions", "is_pg2_paired", "constructions.predicates", None, False),
    ("constructions", "random_sts", "constructions.random_sts", None, False),
    *(("constructions", f, "constructions.builders", None, False) for f in _BUILDERS),
    ("fano", "enumerate_fano", "fano.enumerate", _found, False),
    ("fano", "classify_fano", "fano.classify", None, False),
    ("pstss", "replace_triples", "pstss.replace", None, True),
    ("pstss", "reconstruct_line", "pstss.reconstruct", None, False),
    ("pstss", "recover_vprime", "pstss.recover", None, False),
    ("cli", "main", "cli", None, True),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS and rebind each name that refers to it."""
    wrapped = {}
    for module, attr, name, counter, rss in SPANS:
        owner = sys.modules[f"stslab.{module}"]
        *classes, fn_name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[fn_name]
        traced = tracer.wrap(name, original, counter, rss)
        setattr(owner, fn_name, traced)
        wrapped[id(original)] = (original, traced)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "stslab" and not mod_name.startswith("stslab."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# Per-layer metrics.  The last dotted part of a name says what it measures
# for the span label before it: `s` total time, `self_s` time minus traced
# children, `calls`, `rss_delta_mb` rise of the process peak RSS, and any
# other suffix the sum of the span's count.
LAYER_METRICS = (
    "system.construct.s", "system.construct.calls", "system.construct.rows",
    "system.validate.s", "system.validate.triples",
    "system.write.s", "system.write.mb",
    "system.read.s", "system.read.triples", "system.read.rss_delta_mb",
    "system.span.s", "system.span.calls",
    "system.pair_third.s", "system.pair_third.calls",
    "perm.extend.s", "perm.extend.calls", "perm.extend.grew",
    "search.aut.self_s", "search.aut.calls",
    "search.iso.self_s", "search.iso.calls",
    "search.canon.self_s", "search.canon.calls",
    "search.verify.s", "search.verify.calls",
    "constructions.moore.self_s", "constructions.moore.triples",
    "constructions.moore.rss_delta_mb",
    "constructions.predicates.self_s", "constructions.predicates.calls",
    "constructions.random_sts.s", "constructions.random_sts.calls",
    "fano.enumerate.self_s", "fano.enumerate.found",
    "fano.classify.s", "fano.classify.calls",
    "pstss.replace.self_s", "pstss.replace.rss_delta_mb",
    "pstss.reconstruct.s", "pstss.reconstruct.calls", "pstss.recover.s",
    "cli.self_s", "cli.calls",
)

_UNITS = {"s": "s", "self_s": "s", "rss_delta_mb": "MB", "mb": "MB", "grew_frac": "ratio"}


def unit_of(metric: str) -> str:
    return _UNITS.get(metric.rpartition(".")[2], "count")


def summarize(tracer: Tracer, n_setups: int, n_passes: int) -> dict:
    """Per span label, totals per workload iteration: one set-up plus one pass.

    Spans under a "setup" root are divided by the number of set-ups, spans
    under a "job:..." root by the number of passes.  Also returns the same
    totals split by job, for one pass.
    """
    label = np.frombuffer(tracer.label, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    dur = np.frombuffer(tracer.t1, dtype=np.float64) - np.frombuffer(tracer.t0, dtype=np.float64)
    count = np.frombuffer(tracer.count, dtype=np.float64)
    n, n_labels = len(label), len(tracer.labels)
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    rss = np.zeros(n)
    for sid, delta in tracer.rss.items():
        rss[sid] = delta
    root = np.where(has_parent, parent, np.arange(n))
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    in_setup = label[root] == tracer.label_id("setup")
    weight = np.where(in_setup, 1.0 / n_setups, 1.0 / n_passes)
    columns = {"calls": np.ones(n), "s": dur, "self_s": self_t, "count": count,
               "rss_delta_mb": rss}

    def table(key, size, mask):
        return {
            k: np.bincount(key[mask], weights=(v * weight)[mask], minlength=size)
            for k, v in columns.items()
        }

    overall = table(label, n_labels, has_parent)
    layers = {
        name: {k: float(v[i]) for k, v in overall.items()}
        for i, name in enumerate(tracer.labels)
        if overall["calls"][i]
    }
    by_job_cols = table(label[root] * n_labels + label, n_labels * n_labels,
                        has_parent & ~in_setup)
    by_job: dict = {}
    for key in np.flatnonzero(by_job_cols["calls"]):
        job, lab = divmod(int(key), n_labels)
        by_job.setdefault(tracer.labels[job], {})[tracer.labels[lab]] = {
            k: float(by_job_cols[k][key]) for k in ("calls", "s", "self_s")
        }
    return {"layers": layers, "by_job": by_job}


def layer_metrics(summary: dict) -> dict:
    """The LAYER_METRICS values, the extend success ratio and the span count.

    A layer the workload never called reads 0.
    """
    out = {}
    for metric in LAYER_METRICS:
        label, _, kind = metric.rpartition(".")
        row = summary["layers"].get(label)
        column = kind if kind in ("s", "self_s", "calls", "rss_delta_mb") else "count"
        out[metric] = row[column] if row else 0.0
        if unit_of(metric) == "count":
            out[metric] = round(out[metric], 6)  # whole numbers, less the float error
    calls = out["perm.extend.calls"]
    out["perm.extend.grew_frac"] = out["perm.extend.grew"] / calls if calls else 0.0
    out["trace.spans"] = round(sum(row["calls"] for row in summary["layers"].values()))
    return out


def write_out(tracer: Tracer, summary: dict, work_dir: str, stem: str) -> None:
    """Write the raw spans (.npz) and the per-label and per-job summary (.json)."""
    np.savez(
        os.path.join(work_dir, f"{stem}.spans.npz"),
        labels=np.array(tracer.labels),
        label=np.frombuffer(tracer.label, dtype=np.intc),
        parent=np.frombuffer(tracer.parent, dtype=np.intc),
        t0=np.frombuffer(tracer.t0, dtype=np.float64),
        t1=np.frombuffer(tracer.t1, dtype=np.float64),
        count=np.frombuffer(tracer.count, dtype=np.float64),
    )
    with open(os.path.join(work_dir, f"{stem}.trace.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
