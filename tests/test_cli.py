import hashlib
import json

import pytest

from wehlerk3.cli import build_parser, cmd_cycles, main
from wehlerk3.errors import SingularSurface
from wehlerk3.fixtures import w1_surface
from wehlerk3.surface import parse_surface, serialize_surface


@pytest.fixture(scope="module")
def surface_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("surfaces") / "w1.surface"
    path.write_text(serialize_surface(w1_surface()))
    return str(path)


def test_points_command(surface_file, tmp_path, capsys):
    rc = main(["points", "--surface", surface_file, "--prime", "29",
               "--format", "csv", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count = 1116" in out and "PASS" in out
    rows = (tmp_path / "points_p29.csv").read_text().splitlines()
    assert rows[0] == "a0,a1,a2,b0,b1,b2"
    assert len(rows) == 1117
    assert rows[1:] == sorted(rows[1:], key=lambda r: [int(v) for v in r.split(",")])


def test_points_json(surface_file, capsys):
    rc = main(["points", "--surface", surface_file, "--prime", "29"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["count"] == 1116
    assert payload["lower_bound"] == 204


@pytest.mark.parametrize("fmt,digest", [
    ("csv", "4d0c2d4d0705899956bc860e42eaf899bd4e5e646a025aacbb8b10b4b8864e66"),
    ("json", "4eb986e63c77f84a596929fba19f3625d5ae04e78463bdb6b3e986c90aebdb48"),
])
def test_points_output_pinned(surface_file, tmp_path, capsys, fmt, digest):
    rc = main(["points", "--surface", surface_file, "--prime", "29",
               "--format", fmt, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    data = (tmp_path / f"points_p29.{fmt}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_cycles_command(surface_file, tmp_path, capsys):
    rc = main(["cycles", "--surface", surface_file, "--prime", "29",
               "--format", "csv", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sym_cycles == (fix_x+fix_y)/2 : PASS" in out
    assert "degenerate x-side fibers" in out
    rows = (tmp_path / "cycles_p29.csv").read_text().splitlines()
    assert rows[0] == "length,symmetric,count"


def test_cycles_refuses_a_surface_with_rational_singular_points(surface_file, capsys):
    # W1 mod 3 has two rational singular points; the census would end in
    # NonBijective, so the command stops before it with the points listed.
    rc = main(["cycles", "--surface", surface_file, "--prime", "3"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("error: surface has rational singular points: "
                            "((1 : 1 : 1), (1 : 1 : 1)), ((1 : 1 : 2), (1 : 1 : 2))\n")
    with pytest.raises(SingularSurface):
        cmd_cycles(build_parser().parse_args(["cycles", "--surface", surface_file,
                                              "--prime", "3"]))


def test_experiment_command(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        rc = main(["experiment", "--count", "2", "--primes", "29,37",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "curve_p37.csv").read_bytes() == (out2 / "curve_p37.csv").read_bytes()


def test_random_surface_command(tmp_path, capsys):
    rc = main(["random-surface", "--prime", "29", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    text = (tmp_path / "surface_p29_s4.txt").read_text()
    s = parse_surface(text)
    assert s.domain.p == 29


def test_verify_fixtures_command(capsys):
    rc = main(["verify-fixtures"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out


def test_usage_error_exit_code(surface_file):
    with pytest.raises(SystemExit) as exc:
        main(["points", "--surface", surface_file, "--prime", "30"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--count", "0", "--primes", "29"],
    ["--count", "-2", "--z-variant", "definition"],
    ["--count", "two"],
    ["--count", "1", "--primes", "29", "--threads", "0"],
])
def test_experiment_counts_must_be_positive(flags, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", *flags, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_missing_surface_file():
    rc = main(["points", "--surface", "/nonexistent/file", "--prime", "29"])
    assert rc == 2
