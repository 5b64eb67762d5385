"""Command-line interface: outputs, sidecars, manifests, exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stslab
from stslab import (
    ParameterSolution,
    TripleSystem,
    VerificationError,
    read_system,
    validate_sts,
)
from stslab.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


def _run(*argv):
    return main(list(argv))


def test_construct_base(tmp_path, capsys):
    out = tmp_path / "f.sts"
    assert _run("construct", "base", "--n", "7", "--output", str(out)) == EXIT_OK
    assert "7 points" in capsys.readouterr().out
    ts = read_system(out)
    assert validate_sts(ts).ok


def test_construct_writes_manifest_and_map(tmp_path):
    out = tmp_path / "pg.sts"
    assert _run("construct", "pg", "--dim", "2", "--output", str(out)) == EXIT_OK
    manifest = json.loads((out.parent / "pg.sts.manifest.json").read_text())
    assert manifest["tool"] == "stslab"
    assert manifest["subcommand"] == "construct"
    assert str(out) in manifest["outputs"]
    lines = (out.parent / "pg.sts.map").read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == "point 0 = vector 1"


def test_construct_boolean_dim_3_is_pg2(tmp_path, capsys):
    """The points of the Boolean space are the nonempty subsets of a
    3-set, and its file is that of PG(2, 2)."""
    b, g = tmp_path / "b.sts", tmp_path / "g.sts"
    assert _run("construct", "boolean", "--dim", "3", "--output", str(b)) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {b}: 7 points, 7 triples\n"
    assert (tmp_path / "b.sts.map").read_text().startswith("point 0 = subset 1\n")
    assert _run("construct", "pg", "--dim", "2", "--output", str(g)) == EXIT_OK
    assert b.read_bytes() == g.read_bytes()


def test_construct_moore(tmp_path):
    out = tmp_path / "u.sts"
    code = _run(
        "construct", "moore", "--x", "1", "--y", "7", "--v", "3",
        "--output", str(out),
    )
    assert code == EXIT_OK
    assert read_system(out).n == 19
    mapping = (out.parent / "u.sts.map").read_text()
    assert mapping.startswith("point 0 = ")


def test_manifest_digests_match_the_files_read_back(tmp_path):
    out = tmp_path / "u.sts"
    argv = ("construct", "moore", "--x", "1", "--y", "7", "--v", "3", "--output", str(out))
    assert _run(*argv) == EXIT_OK
    outputs = json.loads((tmp_path / "u.sts.manifest.json").read_text())["outputs"]
    files = (out, tmp_path / "u.sts.map")
    assert outputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def test_construct_double_and_product(tmp_path):
    a = tmp_path / "a.sts"
    _run("construct", "base", "--n", "7", "--output", str(a))
    d = tmp_path / "d.sts"
    assert _run("construct", "double", "--input", str(a), "--output", str(d)) == EXIT_OK
    assert read_system(d).n == 15
    p = tmp_path / "p.sts"
    code = _run(
        "construct", "product", "--input", str(a), "--other", str(a),
        "--output", str(p),
    )
    assert code == EXIT_OK
    assert read_system(p).n == 49


def test_construct_invalid_order(tmp_path, capsys):
    out = tmp_path / "x.sts"
    assert _run("construct", "base", "--n", "5", "--output", str(out)) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_construct_that_builds_an_invalid_system_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("stslab.cli.bose", lambda n: TripleSystem.from_triples(7, [(0, 1, 2)]))
    out = tmp_path / "x.sts"
    assert _run("construct", "bose", "--n", "9", "--output", str(out)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: triple count 1, expected 7\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_ok_and_fail(tmp_path, capsys):
    out = tmp_path / "f.sts"
    _run("construct", "base", "--n", "9", "--output", str(out))
    assert _run("verify", str(out)) == EXIT_OK
    bad = tmp_path / "bad.sts"
    bad.write_text("sts 7\n0 1 2\n")
    assert _run("verify", str(bad)) == EXIT_VALIDATION
    assert _run("verify", str(tmp_path / "missing.sts")) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize(
    "content,needle",
    [
        ("sts 7\n0 1 2\n0 1 3\n", "triple count 2, expected 7"),
        ("pstss 4\n0 1 2\n0 1 3\n", "pair (0, 1) covered twice"),
        ("pstss -3\n", "bad point count"),
    ],
)
def test_invalid_file_exits_1(tmp_path, capsys, content, needle):
    bad = tmp_path / "bad.sts"
    bad.write_text(content)
    assert _run("aut", str(bad)) == EXIT_VALIDATION
    assert needle in capsys.readouterr().err
    assert _run("verify", str(bad)) == EXIT_VALIDATION
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,code",
    [
        ("", EXIT_OK),
        ("5 999999 70\n", EXIT_OK),
        ("5 70 999999\n3 5 999999\n", EXIT_VALIDATION),
    ],
)
def test_verify_sparse_million_point_pstss(tmp_path, capsys, body, code):
    # a pair bitmap for 10^6 points would take 116 GiB
    path = tmp_path / "sparse.pstss"
    path.write_text("pstss 1000000\n" + body)
    assert _run("verify", str(path)) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert f"ok (1000000 points, {body.count(chr(10))} triples)" in captured.out
    else:
        assert "pair (5, 999999) covered twice" in captured.err


def test_aut_and_budget(tmp_path, capsys):
    out = tmp_path / "f.sts"
    _run("construct", "base", "--n", "7", "--output", str(out))
    assert _run("aut", str(out)) == EXIT_OK
    assert "order 168" in capsys.readouterr().out
    assert _run("aut", str(out), "--budget", "1") == EXIT_BUDGET
    for budget in ("0", "-1"):  # no search runs: a usage error, not a budget one
        for argv in (("aut", str(out)), ("iso", str(out), str(out))):
            with pytest.raises(SystemExit) as exc:
                _run(*argv, "--budget", budget)
            assert exc.value.code == EXIT_USAGE
            assert "is not a whole number of at least 1" in capsys.readouterr().err


def test_budget_env_var(tmp_path, monkeypatch, capsys):
    out = tmp_path / "f.sts"
    _run("construct", "base", "--n", "7", "--output", str(out))
    monkeypatch.setenv("STSLAB_NODE_BUDGET", "1")
    assert _run("aut", str(out)) == EXIT_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_budget_env_var_is_a_usage_error(tmp_path, monkeypatch, capsys, value):
    # the variable follows the --budget rule; no search runs
    out = tmp_path / "f.sts"
    _run("construct", "base", "--n", "7", "--output", str(out))
    capsys.readouterr()
    monkeypatch.setenv("STSLAB_NODE_BUDGET", value)
    for argv in (("aut", str(out)), ("iso", str(out), str(out))):
        assert _run(*argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: STSLAB_NODE_BUDGET: {value!r} is not a whole number of at least 1\n"
        )


def test_iso(tmp_path, capsys):
    a, b, c = (tmp_path / x for x in ("a.sts", "b.sts", "c.sts"))
    _run("construct", "base", "--n", "7", "--output", str(a))
    _run("construct", "skolem", "--n", "7", "--output", str(b))
    _run("construct", "base", "--n", "9", "--output", str(c))
    capsys.readouterr()
    assert _run("iso", str(a), str(b)) == EXIT_OK
    assert "isomorphic" in capsys.readouterr().out
    assert _run("iso", str(a), str(c)) == EXIT_OK
    assert "not isomorphic" in capsys.readouterr().out


def test_classify_fano_cmd(capsys):
    assert _run("classify-fano", "--x", "1", "--y", "7", "--v", "3") == EXIT_OK
    out = capsys.readouterr().out
    assert out.strip()
    for line in out.strip().splitlines():
        assert line.startswith("fano ")
        assert "kind=" in line


@pytest.mark.parametrize(
    "xyv,n_lines,digest",
    [
        (("7", "31", "7"), 1103, "1de9255e9afc9a5f04350a36ca5048e18d5bb6fd95e32880052ee8f8533811bf"),
        (("3", "19", "9"), 144, "73e2bd53888be001a760207109f0aa6e859708a4b1ff99a9d827f4f317202e3c"),
    ],
    ids=["moore_7_31_7", "moore_3_19_9"],
)
def test_classify_fano_output_is_pinned(capsys, xyv, n_lines, digest):
    x, y, v = xyv
    assert _run("classify-fano", "--x", x, "--y", y, "--v", v) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_solve_params_roundtrip(tmp_path, capsys):
    from stslab import choose_K, global_threshold

    k, K = choose_K(3, 9)
    u = global_threshold(3, 9, K)
    u += (1 - u) % 6
    assert _run("solve-params", "--u", str(u), "--v1", "3", "--v2", "9") == EXIT_OK
    cert = tmp_path / "cert.txt"
    cert.write_text(capsys.readouterr().out)
    assert _run("solve-params", "--check", str(cert)) == EXIT_OK
    assert "certificate ok" in capsys.readouterr().out


def test_solve_params_check_prints_the_violations(tmp_path, capsys):
    from stslab import choose_K, global_threshold, solve_order

    _, K = choose_K(3, 9)
    u = global_threshold(3, 9, K)
    sol = solve_order(u + (1 - u) % 6, 3, 9)
    cert = tmp_path / "cert.txt"
    cert.write_text(dataclasses.replace(sol, x=sol.x + 24).to_text())
    assert _run("solve-params", "--check", str(cert)) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out.splitlines() == ["x formula violated", "u != x + v(y - x)"]


def test_solve_params_usage_and_failure(tmp_path, capsys):
    assert _run("solve-params") == EXIT_USAGE
    assert _run("solve-params", "--u", "25", "--v1", "3", "--v2", "9") == EXIT_VALIDATION
    capsys.readouterr()


def test_embed_pstss_cor47(tmp_path, capsys):
    v = tmp_path / "v.sts"
    _run("construct", "bose", "--n", "9", "--output", str(v))
    from stslab import bose

    triple = ",".join(map(str, next(bose(9).iter_triples())))
    out = tmp_path / "w.pstss"
    code = _run(
        "embed-pstss", "--mode", "cor47", "--input", str(v), "--v1", triple,
        "--output", str(out),
    )
    assert code == EXIT_OK
    assert read_system(out).n == 13
    # a non-closed subsystem is a validation failure
    for v1 in ("0,1", "0,1,2,9", "0,1,2,-1"):  # not closed, or not points of v
        code = _run(
            "embed-pstss", "--mode", "cor47", "--input", str(v), "--v1", v1,
            "--output", str(tmp_path / "x.pstss"),
        )
        assert code == EXIT_VALIDATION
    capsys.readouterr()


def test_embed_pstss_cor46(tmp_path, capsys):
    v = tmp_path / "v.sts"
    w = tmp_path / "w.sts"
    _run("construct", "bose", "--n", "9", "--output", str(v))
    _run("construct", "base", "--n", "3", "--output", str(w))
    out = tmp_path / "c.pstss"
    code = _run(
        "embed-pstss", "--mode", "cor46", "--input", str(w), "--other", str(v),
        "--output", str(out),
    )
    assert code == EXIT_OK
    assert read_system(out).n == 111
    capsys.readouterr()


def test_embed_pstss_theorem13_cap(tmp_path, capsys):
    v = tmp_path / "v.pstss"
    v.write_text("pstss 2\n")  # gadgets make 36 points: a Boolean space on 2^36 - 1
    out = tmp_path / "o.sts"
    code = _run("embed-pstss", "--mode", "theorem13", "--input", str(v), "--output", str(out))
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: Boolean space ground size 36 ") and err.count("\n") == 1
    assert not out.exists()


def test_construct_pg_past_the_limit_names_it(tmp_path, capsys):
    out = tmp_path / "x.sts"
    assert _run("construct", "pg", "--dim", "15", "--output", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: dimension 15 is outside 1..14\n"
    assert not out.exists()


def test_rigid_search_cmd(tmp_path, capsys):
    out = tmp_path / "r.sts"
    assert _run("rigid-search", "--n", "15", "--output", str(out)) == EXIT_OK
    capsys.readouterr()
    assert _run("aut", str(out)) == EXIT_OK
    assert "order 1" in capsys.readouterr().out
    assert _run("rigid-search", "--n", "9", "--output", str(out)) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,code",
    [
        ("construct boolean --dim 0 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("construct boolean --dim 16 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("construct pg --dim 0 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("construct pg --dim 15 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("construct moore --x 1 --y 0 --v 3 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("classify-fano --x 1 --y 0 --v 3", EXIT_VALIDATION),
        ("construct moore --x 0 --y 1 --v 3 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("classify-fano --x 0 --y 1 --v 3", EXIT_VALIDATION),
        ("solve-params --check {tmp}/missing.txt", EXIT_VALIDATION),
        ("verify {tmp}", EXIT_VALIDATION),
        ("construct double --input {tmp}/f.sts --output {tmp}/no/dir/x.sts", EXIT_VALIDATION),
        ("construct moore --x -3 --y 7 --v 3 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("construct base --n -3 --output {tmp}/x.sts", EXIT_VALIDATION),
        ("solve-params --check {tmp}/not_an_int.txt", EXIT_VALIDATION),
        ("solve-params --check {tmp}/unknown_key.txt", EXIT_VALIDATION),
        ("embed-pstss --mode cor46 --input {tmp}/f.sts --output {tmp}/x.pstss", EXIT_USAGE),
        ("embed-pstss --mode cor47 --input {tmp}/f.sts --output {tmp}/x.pstss", EXIT_USAGE),
    ],
    ids=[
        "boolean_dim_0", "boolean_dim_16", "pg_dim_0", "pg_dim_15",
        "moore_x_in_empty_y", "classify_fano_x_in_empty_y",
        "moore_one_point_y", "classify_fano_one_point_y",
        "missing_certificate", "verify_directory", "unwritable_output",
        "moore_negative_x", "base_negative_n", "certificate_not_an_int",
        "certificate_unknown_key", "cor46_without_other", "cor47_without_v1",
    ],
)
def test_user_errors_print_one_error_line(tmp_path, capsys, argv, code):
    _run("construct", "base", "--n", "7", "--output", str(tmp_path / "f.sts"))
    (tmp_path / "not_an_int.txt").write_text("u = abc\n")
    every_key = "".join(f"{f.name} = 0\n" for f in dataclasses.fields(ParameterSolution))
    (tmp_path / "unknown_key.txt").write_text(every_key + "colour = 3\n")
    capsys.readouterr()
    assert _run(*(a.format(tmp=tmp_path) for a in argv.split())) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,code,err",
    [
        ("construct double --input {tmp}/p.pstss --output {tmp}/x.sts", EXIT_VALIDATION,
         "error: {tmp}/p.pstss: expected a full system (header 'sts')\n"),
        ("embed-pstss --mode cor47 --input {tmp}/f.sts --v1 1,x --output {tmp}/x.sts", EXIT_USAGE,
         "error: --v1 must be a comma-separated point list\n"),
    ],
    ids=["double_of_a_partial_system", "cor47_v1_not_a_point_list"],
)
def test_user_errors_name_the_fault(tmp_path, capsys, argv, code, err):
    _run("construct", "base", "--n", "7", "--output", str(tmp_path / "f.sts"))
    (tmp_path / "p.pstss").write_text("pstss 3\n")
    capsys.readouterr()
    assert _run(*(a.format(tmp=tmp_path) for a in argv.split())) == code
    assert capsys.readouterr().err == err.format(tmp=tmp_path)
    assert not (tmp_path / "x.sts").exists()


# Runs the CLI in a child process whose address space is capped, so that
# an input too large for it raises MemoryError there and nowhere else.
_CAPPED_CLI = """
import resource, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from stslab.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        "construct pg --dim 14 --output {tmp}/x.sts",  # 1 GB of rows in one array
        "construct base --n 20001 --output {tmp}/x.sts",  # 66.7M triples in Python lists
    ],
    ids=["pg_dim_14", "base_n_20001"],
)
def test_out_of_memory_prints_one_error_line(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(stslab.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = [a.format(tmp=tmp_path) for a in argv.split()]
    cap = str(512 * 2**20)
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, cap, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == EXIT_VALIDATION, done.stderr
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
    assert not (tmp_path / "x.sts").exists()


def test_internal_fault_surfaces(tmp_path, monkeypatch):
    def fault(n):
        raise VerificationError("a computed result failed its check")

    monkeypatch.setattr("stslab.cli.bose", fault)
    with pytest.raises(VerificationError):
        _run("construct", "bose", "--n", "9", "--output", str(tmp_path / "x.sts"))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        _run("no-such-command")
    assert exc.value.code == EXIT_USAGE
