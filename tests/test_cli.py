"""Command-line interface: outputs, sidecars, manifests, exit codes."""

import hashlib
import json

import pytest

from stslab import TripleSystem, read_system, validate_sts
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


def test_budget_env_var(tmp_path, monkeypatch, capsys):
    out = tmp_path / "f.sts"
    _run("construct", "base", "--n", "7", "--output", str(out))
    monkeypatch.setenv("STSLAB_NODE_BUDGET", "1")
    assert _run("aut", str(out)) == EXIT_BUDGET
    capsys.readouterr()


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
    v.write_text("pstss 1\n")
    code = _run(
        "embed-pstss", "--mode", "theorem13", "--input", str(v),
        "--np-cap", "10", "--output", str(tmp_path / "o.sts"),
    )
    assert code == EXIT_VALIDATION
    assert "cap" in capsys.readouterr().err


def test_rigid_search_cmd(tmp_path, capsys):
    out = tmp_path / "r.sts"
    assert _run("rigid-search", "--n", "15", "--output", str(out)) == EXIT_OK
    capsys.readouterr()
    assert _run("aut", str(out)) == EXIT_OK
    assert "order 1" in capsys.readouterr().out
    assert _run("rigid-search", "--n", "9", "--output", str(out)) == EXIT_VALIDATION
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        _run("no-such-command")
    assert exc.value.code == EXIT_USAGE
