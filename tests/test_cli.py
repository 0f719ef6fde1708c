"""Command line interface: subcommands, exit codes, deterministic output."""

from __future__ import annotations

import json

import pytest

from eulercc import DegeneracyError, TheoremReport, cli


@pytest.fixture()
def sphere_dir(tmp_path):
    assert cli.main(["fixtures", "dump", "--name", "sphere", "--dir", str(tmp_path)]) == 0
    return tmp_path


@pytest.fixture()
def book_dir(tmp_path):
    assert cli.main(["fixtures", "dump", "--name", "book", "--dir", str(tmp_path)]) == 0
    return tmp_path


def test_fixtures_list(capsys) -> None:
    assert cli.main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("interval", "sphere", "book"):
        assert name in out


def test_fixtures_list_json(capsys) -> None:
    assert cli.main(["fixtures", "list", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "sphere" in payload["names"]


def test_fixtures_dump_file_layout(sphere_dir) -> None:
    names = sorted(p.name for p in sphere_dir.iterdir())
    assert "sphere.complex.json" in names
    assert "sphere.alpha.one.json" in names
    assert "sphere.f.z.json" in names


def test_validate_ok(sphere_dir, capsys) -> None:
    rc = cli.main(
        ["validate", "--complex", str(sphere_dir / "sphere.complex.json")]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_reports_violations(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "ambient_dim": 2,
                "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
                "simplices": [[0], [1], [2], [0, 1, 2]],
            }
        )
    )
    rc = cli.main(["validate", "--complex", str(bad), "--output", "json"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert {v["kind"] for v in payload["violations"]} == {"closure"}


def test_euler_human_output(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "euler",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_euler_json_output(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "euler",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.dual_one.json"),
            "--output",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "euler", "value": 2}


def test_dual_round_trip_through_cli(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "dual",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
            "--output",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # the sphere is a closed surface: dual of 1 is 1
    values = payload["result"]["values"]
    assert all(int(v) == 1 for v in values.values())


def test_cc_json_schema(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "cc",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
            "--output",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "cc"
    assert set(payload) == {"command", "strata", "support"}
    some = next(iter(payload["strata"].values()))
    assert {"multiplicity", "sign_vector", "witness"} <= set(some[0])


def test_subdivide_output_revalidates(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "subdivide",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--times",
            "1",
            "--output",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    from eulercc import validate
    from eulercc.io import parse_complex

    cx = parse_complex(payload["complex"])
    assert validate(cx) == []


def test_theorem1_holds(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "theorem1",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
            "--f",
            str(sphere_dir / "sphere.f.z.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "theorem1: HOLDS" in out
    assert "lhs = 1" in out


def test_theorem1_hypothesis_failure_exits_2(book_dir, capsys) -> None:
    rc = cli.main(
        [
            "theorem1",
            "--complex",
            str(book_dir / "book.complex.json"),
            "--alpha",
            str(book_dir / "book.alpha.one.json"),
            "--f",
            str(book_dir / "book.f.x_minus_2.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "hypothesis failure" in err


def test_global_index_cli(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "global-index",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    assert "HOLDS" in capsys.readouterr().out


def test_local_index_cli(sphere_dir, capsys) -> None:
    rc = cli.main(
        [
            "local-index",
            "--complex",
            str(sphere_dir / "sphere.complex.json"),
            "--alpha",
            str(sphere_dir / "sphere.alpha.one.json"),
            "--vertex",
            "0",
        ]
    )
    assert rc == 0
    assert "lhs = 1" in capsys.readouterr().out


def test_nonconvergence_prints_the_rejection_log(tmp_path, capsys, monkeypatch) -> None:
    assert cli.main(["fixtures", "dump", "--name", "interval", "--dir", str(tmp_path)]) == 0

    def degenerate(*args, **kwargs):
        raise DegeneracyError("limit gradient pairs to zero with a star vertex")

    monkeypatch.setattr("eulercc.intersect.stabilized_count", degenerate)
    capsys.readouterr()
    rc = cli.main(
        [
            "local-index",
            "--complex",
            str(tmp_path / "interval.complex.json"),
            "--alpha",
            str(tmp_path / "interval.alpha.one.json"),
            "--vertex",
            "0",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    first, rest = err.split("\n", 1)
    assert first.startswith("no stable answer:")
    trace = json.loads(rest)["trace"]
    assert [rec["seed"] for rec in trace] == list(range(8))


def test_boundary_estimate_cli_both_sides(book_dir, capsys) -> None:
    for side in ("shriek", "star"):
        rc = cli.main(
            [
                "boundary-estimate",
                "--complex",
                str(book_dir / "book.complex.json"),
                "--alpha",
                str(book_dir / "book.alpha.one.json"),
                "--g",
                str(book_dir / "book.f.x.json"),
                "--delta",
                "1/2",
                "--side",
                side,
            ]
        )
        assert rc == 0, side


def test_boundary_estimate_transversality_exits_2(book_dir, capsys) -> None:
    rc = cli.main(
        [
            "boundary-estimate",
            "--complex",
            str(book_dir / "book.complex.json"),
            "--alpha",
            str(book_dir / "book.alpha.one.json"),
            "--g",
            str(book_dir / "book.f.x.json"),
            "--delta",
            "1",
            "--side",
            "shriek",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "witness" in err


def test_malformed_rational_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.complex.json"
    bad.write_text(
        json.dumps(
            {
                "ambient_dim": 1,
                "vertices": [["1/0"]],
                "simplices": [[0]],
            }
        )
    )
    rc = cli.main(["validate", "--complex", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys) -> None:
    rc = cli.main(["validate", "--complex", str(tmp_path / "absent.json")])
    assert rc == 2


def test_fixture_dir_env_fallback(sphere_dir, monkeypatch, capsys) -> None:
    monkeypatch.setenv(cli.FIXTURE_DIR_ENV, str(sphere_dir))
    rc = cli.main(
        [
            "euler",
            "--complex",
            "sphere.complex.json",
            "--alpha",
            "sphere.alpha.one.json",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_json_output_is_byte_stable(sphere_dir, capsys) -> None:
    argv = [
        "cc",
        "--complex",
        str(sphere_dir / "sphere.complex.json"),
        "--alpha",
        str(sphere_dir / "sphere.alpha.random0.json"),
        "--output",
        "json",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_violated_report_exits_1(capsys) -> None:
    """No builtin input violates the identity, so exercise the exit-1 path
    with a handmade report."""

    class _Args:
        output = "human"

    report = TheoremReport(
        "theorem1", 1, 2, False, ({"check": "stabilization"},), {"note": "probe"}
    )
    rc = cli._report_exit(_Args(), report)
    assert rc == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "witness" in out
