"""The three benchmark workloads.

Each `setup_<name>(seed, work_dir)` builds the workload's inputs from the
seed and returns its job list.  A job is one user-level operation; its
`run(state)` is the timed call into stslab and its `check(result)` is the
untimed, independent answer check (see oracles.py), returning a failure
message or None.  `state` is a dict shared by the jobs of one pass, for
jobs that consume an earlier job's output.

Every call into stslab goes through a module attribute looked up at call
time (`st.automorphism_group`, `st.cli.main`, ...), so the traced run sees
the wrapped functions.

`span` caches the pair-to-third-point dict on the system instance, so each
`closure` job first builds its systems afresh from the stored triple arrays
(see `_fresh`): every pass then does the same work, and a change that moves
work into construction is still timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import stslab as st
import stslab.cli

import oracles


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], str | None]


def _relabeled(system, rng: random.Random):
    """A seeded relabeled copy of a full system, and the point map used."""
    perm = list(range(system.n))
    rng.shuffle(perm)
    copy = st.TripleSystem.from_triples(
        system.n, oracles.relabel(oracles.triple_list(system), perm)
    )
    return copy, perm


# ---------------------------------------------------------------------------
# oracle: exact symmetry queries

# Random STS(15) instances per pass; each gives one aut and two iso jobs.
RANDOM_SYSTEMS = 1


def _check_aut(system, want_order):
    triples = oracles.triple_list(system)

    def check(group):
        for g in group.generators:
            if not oracles.maps_onto(triples, triples, g):
                return f"generator {g} is not an automorphism"
        if want_order is not None and group.order != want_order:
            return f"|Aut| = {group.order}, expected {want_order}"
        return None

    return check


def _check_iso_pos(a, b):
    ta, tb = oracles.triple_list(a), oracles.triple_list(b)

    def check(cert):
        if not cert.isomorphic:
            return "relabeled copy reported not isomorphic"
        if not oracles.maps_onto(ta, tb, cert.mapping):
            return "iso map does not carry triples onto triples"
        return None

    return check


def _check_iso_neg(cert):
    return "invariant-separated pair reported isomorphic" if cert.isomorphic else None


def setup_oracle(seed: int, work_dir: str) -> list:
    rng = random.Random(seed)
    cases = [
        ("pg3", st.pg_sts(3), oracles.gl_order(4, 2)),
        ("pg4", st.pg_sts(4), oracles.gl_order(5, 2)),
        ("bose9", st.bose(9), 9 * oracles.gl_order(2, 3)),  # |AGL(2, 3)|
        ("bose27", st.bose(27), None),
        ("double_bose9", st.double(st.bose(9)), None),
    ]
    inp = st.MooreInput.build(*st.embed_subsystem(1, 7), st.base_sts(3))
    product = st.moore(inp)
    lifted = oracles.lifted_aut_order(
        inp.v.n,
        oracles.triple_list(inp.v),
        len(inp.x_points),
        inp.m,
        oracles.triple_list(product),
    )
    cases.append(("moore_1_7_3", product, lifted))

    jobs = [
        Job(f"aut:{name}", lambda s, ts=ts: st.automorphism_group(ts), _check_aut(ts, want))
        for name, ts, want in cases
    ]
    for i in range(RANDOM_SYSTEMS):
        a = st.constructions.random_sts(15, rng)
        pos, _ = _relabeled(a, rng)
        inv_a = oracles.cycle_invariant(15, oracles.triple_list(a))
        # draw until the benchmark's own invariant separates the pair, so the
        # negative query is known to be non-isomorphic
        neg = st.constructions.random_sts(15, rng)
        while oracles.cycle_invariant(15, oracles.triple_list(neg)) == inv_a:
            neg = st.constructions.random_sts(15, rng)
        jobs += [
            Job(f"aut:sts15_{i}", lambda s, a=a: st.automorphism_group(a), _check_aut(a, None)),
            Job(f"iso_pos:sts15_{i}", lambda s, a=a, b=pos: st.are_isomorphic(a, b),
                _check_iso_pos(a, pos)),
            Job(f"iso_neg:sts15_{i}", lambda s, a=a, b=neg: st.are_isomorphic(a, b),
                _check_iso_neg),
        ]
    return jobs


# ---------------------------------------------------------------------------
# closure: subsystem closure on mid-size systems

MOORE_CLOSURE = ((7, 15, 3), (1, 9, 7), (3, 9, 7), (3, 19, 9), (7, 31, 7))
FANO_KINDS = {"type31", "in_yv", "vsf"}


def _check_planes(system, want_count=None):
    third = oracles.third_table(system.n, oracles.triple_list(system))

    def check(planes):
        if want_count is not None and len(planes) != want_count:
            return f"{len(planes)} planes, expected {want_count}"
        if not planes:
            return "no planes found"
        for pts in planes:
            if len(set(pts)) != 7 or not oracles.is_closed(pts, third):
                return f"{pts} is not a closed 7-set"
        return None

    return check


def _check_classified(system):
    planes_ok = _check_planes(system)

    def check(result):
        planes, kinds = result
        if len(kinds) != len(planes) or any(c.kind not in FANO_KINDS for c in kinds):
            return "a plane was left unclassified"
        return planes_ok(planes)

    return check


def _check_all_true(result):
    return None if all(r is True for r in result) else f"predicate verdicts {result}"


def _fresh(system):
    """A new instance with the same triples and no per-instance caches."""
    return st.TripleSystem(system.n, system.triples)


def _fano_job(inp, u):
    def run(s):
        fresh = dataclasses.replace(inp, y=_fresh(inp.y), v=_fresh(inp.v))
        planes = st.enumerate_fano(_fresh(u))
        return planes, [st.classify_fano(fresh, p) for p in planes]

    return run


def setup_closure(seed: int, work_dir: str) -> list:
    rng = random.Random(seed)
    jobs = []
    for x, y, v in MOORE_CLOSURE:
        inp = st.MooreInput.build(*st.embed_subsystem(x, y), st.base_sts(v))
        u = st.moore(inp)
        jobs.append(Job(f"fano:moore_{x}_{y}_{v}", _fano_job(inp, u), _check_classified(u)))
    pg5, _ = _relabeled(st.pg_sts(5), rng)
    jobs.append(Job(
        "fano:pg5", lambda s: st.enumerate_fano(_fresh(pg5)),
        _check_planes(pg5, oracles.gaussian_binomial(6, 3, 2)),
    ))
    square, _ = _relabeled(st.direct_product(st.pg_sts(3), st.pg_sts(3)), rng)
    jobs.append(Job("paired:pg3xpg3", lambda s: (st.is_pg2_paired(_fresh(square)),), _check_all_true))
    for n in (7, 9, 13):
        # in double(Y) the new point 2|Y| is PG(2,2)-pointed; doubling again
        # keeps it and adds the outer one, and the two are PG(3,2)-2-pointed
        inner = st.double(st.base_sts(n))
        d, d_perm = _relabeled(inner, rng)
        dd, dd_perm = _relabeled(st.double(inner), rng)
        p, q = dd_perm[2 * n], dd_perm[2 * inner.n]
        jobs.append(Job(
            f"pg2_pointed:double_{n}",
            lambda s, d=d, dd=dd, a=d_perm[2 * n], q=q: (
                st.is_pg2_pointed(_fresh(d), a),
                st.is_pg2_pointed(_fresh(dd), q),
            ),
            _check_all_true,
        ))
        jobs.append(Job(
            f"pg3_2pointed:double_double_{n}",
            lambda s, dd=dd, p=p, q=q: (st.is_pg3_2pointed(_fresh(dd), p, q),),
            _check_all_true,
        ))
    return jobs


# ---------------------------------------------------------------------------
# scale: the large-system path

MOORE_SCALE = (7, 127, 31)  # 3,727 points, 2,314,467 triples
BOOLEAN_DIM = 13  # 8,191 points
CYCLE_TRIPLES = 6  # vprime: 12 points, 6 triples
LINE_QUERIES = 1000


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = st.cli.main(argv)
    return code, out.getvalue()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_construct(path):
    def check(result):
        code, _ = result
        if code != 0:
            return f"construct exited {code}"
        with open(path + ".manifest.json") as fh:
            outputs = json.load(fh)["outputs"]
        for name in (path, path + ".map"):
            if outputs.get(name) != _sha256(name):
                return f"manifest digest of {name} does not match the file"
        return None

    return check


def _check_verify(n):
    want = f"ok ({n} points, {n * (n - 1) // 6} triples)"

    def check(result):
        code, text = result
        if code != 0 or want not in text:
            return f"verify exited {code}: {text.strip()!r}, expected {want!r}"
        return None

    return check


def setup_scale(seed: int, work_dir: str) -> list:
    rng = random.Random(seed)
    x, y, v = MOORE_SCALE
    moore_n = x + v * (y - x)
    path = os.path.join(work_dir, f"moore_{x}_{y}_{v}.sts")
    argv = ["construct", "moore", "--x", str(x), "--y", str(y), "--v", str(v),
            "--output", path]
    space = st.boolean_space(BOOLEAN_DIM)
    vprime = st.cyclic_pstss(CYCLE_TRIPLES).system
    n = space.n
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(LINE_QUERIES)]
    singletons = frozenset((1 << j) - 1 for j in range(vprime.n))

    def replace(s):
        s["rep"] = st.replace_triples(space, vprime)
        return s["rep"]

    def check_replace(rep):
        if rep.system.n_triples != n * (n - 1) // 6 or len(rep.added) != 4 * vprime.n_triples:
            return f"switched system has {rep.system.n_triples} triples"
        return None

    def check_lines(lines):
        for (a, b), line in zip(pairs, lines):
            if line != oracles.xor_line(a, b):
                return f"line through {a}, {b} reconstructed as {sorted(line)}"
        return None

    return [
        Job("cli:construct_moore", lambda s: _cli(argv), _check_construct(path)),
        Job("cli:verify", lambda s: _cli(["verify", path]), _check_verify(moore_n)),
        Job("replace_triples", replace, check_replace),
        Job("validate_sts", lambda s: st.validate_sts(s["rep"].system),
            lambda r: None if r.ok else f"validation failed: {r.violations[:3]}"),
        Job("check_property_44", lambda s: st.check_property_44(s["rep"]),
            lambda ok: None if ok is True else "property 44 failed"),
        Job("reconstruct_line", lambda s: [st.reconstruct_line(s["rep"], a, b) for a, b in pairs],
            check_lines),
        Job("recover_vprime", lambda s: st.recover_vprime(s["rep"]),
            lambda got: None if got == singletons else f"recovered {sorted(got)}"),
    ]


SETUPS = {"oracle": setup_oracle, "closure": setup_closure, "scale": setup_scale}
