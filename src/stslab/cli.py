"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 search
budget exceeded.  `main` alone maps errors to codes: a library error
about the input, a file that cannot be read or written, or running out of
memory prints one `error:` line and exits 1, and a bad
`STSLAB_NODE_BUDGET` exits 2; any other error is a fault and surfaces as
a traceback.  Every file-producing command also writes a sidecar
point-name map (`<output>.map`) and a JSON run manifest
(`<output>.manifest.json`) so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .constructions import (
    ConstructionError,
    MooreInput,
    base_sts,
    bose,
    direct_product,
    double,
    embed_subsystem,
    moore,
    pg_sts,
    rigid_sts_search,
    skolem,
)
from .fano import ClassificationError, classify_fano, enumerate_fano
from .params import ParameterError, ParameterSolution, solve_order
from .pstss import (
    PstssError,
    attach_gadgets,
    boolean_space,
    corollary46_build,
    corollary47_build,
    replace_triples,
)
from .search import (
    BudgetExceededError,
    BudgetSettingError,
    are_isomorphic,
    automorphism_group,
    parse_node_budget,
)
from .perm import cycle_string
from .system import (
    FormatError,
    InvalidSystemError,
    TripleSystem,
    read_system,
    write_system,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _node_budget(text: str) -> int:
    try:
        return parse_node_budget(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _write_outputs(system, args, out: str, names: list | None = None) -> None:
    outputs = {out: write_system(system, out)}
    if names is not None:
        text = "".join(f"point {i} = {name}\n" for i, name in enumerate(names)).encode()
        with open(out + ".map", "wb") as fh:
            fh.write(text)
        outputs[out + ".map"] = hashlib.sha256(text).hexdigest()
    manifest = {
        "tool": "stslab",
        "version": __version__,
        "subcommand": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "outputs": outputs,
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_sts(path: str) -> TripleSystem:
    ts = read_system(path)
    if not isinstance(ts, TripleSystem):
        raise CliError(f"{path}: expected a full system (header 'sts')")
    return ts


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    kind = args.kind
    names = None
    if kind in ("bose", "skolem", "base"):
        fn = {"bose": bose, "skolem": skolem, "base": base_sts}[kind]
        system = fn(args.n)
    elif kind == "pg":
        system = pg_sts(args.dim)
        names = [f"vector {i + 1:b}" for i in range(system.n)]
    elif kind == "boolean":
        system = boolean_space(args.dim).system()
        names = [f"subset {i + 1:b}" for i in range(system.n)]
    elif kind == "double":
        y = _load_sts(args.input)
        system = double(y)
        names = [f"y:{i}" for i in range(y.n)]
        names += [f"y1:{i}" for i in range(y.n)]
        names += ["*"]
    elif kind == "product":
        a = _load_sts(args.input)
        b = _load_sts(args.other)
        system = direct_product(a, b)
        names = [f"({i},{j})" for i in range(a.n) for j in range(b.n)]
    else:  # moore; argparse restricts the kinds
        ysys, xpts = embed_subsystem(args.x, args.y)
        inp = MooreInput.build(ysys, xpts, base_sts(args.v))
        system = moore(inp)
        names = inp.point_names()
    _write_outputs(system, args, args.output, names)
    print(f"wrote {args.output}: {system.n} points, {system.n_triples} triples")
    return EXIT_OK


def cmd_verify(args) -> int:
    system = read_system(args.path)  # raises with every violation when invalid
    print(f"{args.path}: ok ({system.n} points, {system.n_triples} triples)")
    return EXIT_OK


def cmd_aut(args) -> int:
    system = read_system(args.path)
    group = automorphism_group(system, budget=args.budget)
    print(f"order {group.order}")
    for g in group.generators:
        print(f"generator {cycle_string(g)}")
    return EXIT_OK


def cmd_iso(args) -> int:
    a = read_system(args.a)
    b = read_system(args.b)
    cert = are_isomorphic(a, b, budget=args.budget)
    if cert.isomorphic:
        print("isomorphic")
        print("mapping " + " ".join(map(str, cert.mapping)))
    else:
        print("not isomorphic")
    return EXIT_OK


def cmd_classify_fano(args) -> int:
    ysys, xpts = embed_subsystem(args.x, args.y)
    inp = MooreInput.build(ysys, xpts, base_sts(args.v))
    u = moore(inp)
    for pts in enumerate_fano(u):
        c = classify_fano(inp, pts)
        detail = ""
        if c.kind == "type31":
            detail = f" x={c.x_point} v_triple={c.v_triple} a={c.a_values}"
        elif c.kind == "in_yv":
            detail = f" v={c.v}"
        elif c.kind == "vsf":
            detail = f" s={c.s_points} f={c.f}"
        print("fano " + " ".join(map(str, pts)) + f" kind={c.kind}{detail}")
    return EXIT_OK


def cmd_solve_params(args) -> int:
    if args.check:
        with open(args.check) as fh:
            text = fh.read()
        sol = ParameterSolution.from_text(text)
        problems = sol.check()
        if problems:
            for p in problems:
                print(p)
            return EXIT_VALIDATION
        print("certificate ok")
        return EXIT_OK
    if args.u is None or args.v1 is None or args.v2 is None:
        raise CliError("need --u, --v1, --v2 (or --check)", EXIT_USAGE)
    sol = solve_order(args.u, args.v1, args.v2)
    sys.stdout.write(sol.to_text())
    return EXIT_OK


def cmd_embed_pstss(args) -> int:
    if args.mode == "theorem13":
        attached = attach_gadgets(read_system(args.input))
        rep = replace_triples(boolean_space(attached.n), attached)
        names = [f"subset {i + 1:b}" for i in range(rep.system.n)]
        _write_outputs(rep.system, args, args.output, names)
        print(
            f"wrote {args.output}: {rep.system.n} points, "
            f"{rep.system.n_triples} triples ({len(rep.added)} switched in)"
        )
    elif args.mode == "cor46":
        if args.other is None:
            raise CliError("--mode cor46 needs --other", EXIT_USAGE)
        w = _load_sts(args.input)
        v = _load_sts(args.other)
        res = corollary46_build(v, w)
        names = [
            f"w:{i}" if i < w.n else f"gadget:{i}" for i in range(res.n - v.n)
        ] + [f"v:{i}" for i in range(v.n)]
        _write_outputs(res, args, args.output, names)
        print(f"wrote {args.output}: {res.n} points (pstss)")
    else:  # cor47; argparse restricts the modes
        if args.v1 is None:
            raise CliError("--mode cor47 needs --v1", EXIT_USAGE)
        v = _load_sts(args.input)
        try:
            v1 = {int(s) for s in args.v1.split(",")}
        except ValueError:
            raise CliError("--v1 must be a comma-separated point list", EXIT_USAGE)
        res = corollary47_build(v, v1)
        names = [f"v:{i}" for i in range(v.n)]
        names += [f"{x}'" for x in sorted(v1)]
        names += ["z"]
        _write_outputs(res, args, args.output, names)
        print(f"wrote {args.output}: {res.n} points (pstss)")
    return EXIT_OK


def cmd_rigid_search(args) -> int:
    system = rigid_sts_search(args.n, seed=args.seed)
    _write_outputs(system, args, args.output, None)
    print(f"wrote {args.output}: rigid system on {system.n} points (seed {args.seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stslab",
        description="Construct, verify, and analyze (partial) Steiner triple systems.",
    )
    parser.add_argument("--version", action="version", version=f"stslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a system and write it out")
    ps = p.add_subparsers(dest="kind", required=True)
    for kind in ("bose", "skolem", "base"):
        q = ps.add_parser(kind)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--output", required=True)
    q = ps.add_parser("pg")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--output", required=True)
    q = ps.add_parser("boolean")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--output", required=True)
    q = ps.add_parser("double")
    q.add_argument("--input", required=True)
    q.add_argument("--output", required=True)
    q = ps.add_parser("product")
    q.add_argument("--input", required=True)
    q.add_argument("--other", required=True)
    q.add_argument("--output", required=True)
    q = ps.add_parser("moore")
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--output", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="validate a system file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("aut", help="exact automorphism group")
    p.add_argument("path")
    p.add_argument("--budget", type=_node_budget, default=None)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("iso", help="decide isomorphism of two systems")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=_node_budget, default=None)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("classify-fano", help="classify 7-point subsystems of a product")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=cmd_classify_fano)

    p = sub.add_parser("solve-params", help="realize a target order arithmetically")
    p.add_argument("--u", type=int)
    p.add_argument("--v1", type=int)
    p.add_argument("--v2", type=int)
    p.add_argument("--check", help="re-verify a certificate file")
    p.set_defaults(func=cmd_solve_params)

    p = sub.add_parser("embed-pstss", help="rigidifying embedding pipelines")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("theorem13", "cor46", "cor47"), required=True)
    p.add_argument("--other", help="second system file (cor46)")
    p.add_argument("--v1", help="comma-separated subsystem points (cor47)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed_pstss)

    p = sub.add_parser("rigid-search", help="find a system with no symmetry")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_rigid_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetSettingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (
        ClassificationError,
        ConstructionError,
        FormatError,
        InvalidSystemError,
        ParameterError,
        PstssError,
    ) as e:  # the library's errors about its input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:  # a file that cannot be read or written
        reason = str(e) if e.filename is None else f"{e.strerror}: {e.filename}"
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:  # an input too large for the memory the process may use
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
