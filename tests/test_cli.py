import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hambif
from hambif import cli
from hambif.errors import ConfigParse

DATA = Path(__file__).parent / "data"


def run_cli(args):
    buf = io.StringIO()
    code = cli.main(args, stdout=buf)
    return code, buf.getvalue()


def src_env():
    """Environment for a fresh interpreter that imports hambif from this checkout."""
    src = str(Path(hambif.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_analyze_satellite_exit_zero():
    code, out = run_cli(["analyze", "--preset", "satellite", "--omega", "1", "--c", "0.1"])
    assert code == 0
    assert "confirmed" in out
    assert "satellite" in out


def test_analyze_harmonic_candidate_line():
    code, out = run_cli(["analyze", "--preset", "harmonic", "--beta", "1", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(records) == 1
    rec = records[0]
    assert abs(rec["lambda0"] - 1.0) < 1e-12
    assert abs(rec["period"] - 2.0 * np.pi) < 1e-12
    assert list(rec.keys()) == list(cli.ANALYZE_COLUMNS)


def test_analyze_no_imaginary_pairs_exit_two(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[system]\nn = 1\nmonomials = 0.5 2 0 ; -0.5 0 2\n", encoding="utf-8"
    )
    code, out = run_cli(["analyze", "--config", str(config)])
    assert code == 2
    assert "no candidate levels" in out


def test_analyze_inline_polynomial_harmonic(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\n[output]\nformat = csv\n",
        encoding="utf-8",
    )
    code, out = run_cli(["analyze", "--config", str(config)])
    assert code == 0
    csv_lines = [line for line in out.splitlines() if line and (line[0].isdigit() or line.startswith("index"))]
    assert csv_lines[0].split(",")[:3] == ["index", "j0", "beta"]
    assert csv_lines[1].split(",")[0] == "1"


def test_branch_harmonic_constant_period(tmp_path):
    out_path = tmp_path / "branch.jsonl"
    code, out = run_cli(
        [
            "branch",
            "--preset",
            "harmonic",
            "--beta",
            "1",
            "--steps",
            "4",
            "--format",
            "json-lines",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    orbit_records = [r for r in records if "period" in r]
    coeff_records = [r for r in records if r.get("record") == "coefficients"]
    assert len(orbit_records) == 4 and len(coeff_records) == 4
    for rec in orbit_records:
        assert abs(rec["period"] - 2.0 * np.pi) < 1e-12
        assert rec["minimal_period"] == "minimal"
    assert list(orbit_records[0].keys()) == list(cli.BRANCH_COLUMNS)


def test_branch_satellite_period_trend(tmp_path):
    out_path = tmp_path / "sat.csv"
    code, out = run_cli(
        [
            "branch",
            "--preset",
            "satellite",
            "--omega",
            "1",
            "--c",
            "0.1",
            "--steps",
            "3",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    assert "branch verdict: ok" in out
    rows = out_path.read_text().splitlines()
    assert rows[0].split(",") == list(cli.BRANCH_COLUMNS)
    assert len(rows) == 4
    assert (tmp_path / "sat.csv.coeffs.csv").exists()
    period = float(rows[1].split(",")[3])
    predicted = 2.0 * np.pi / 1.187243142529314
    assert abs(period - predicted) < 1e-6


def test_branch_verdict_reads_health_not_the_first_amplitude(capsys):
    # the measured Sobolev amplitude exceeds the pinned projection s0 by
    # O(s0^3), 3.2e-8 here; each of the 8 orbits met the solver's tolerance
    argv = ["branch", "--preset", "satellite", "--omega", "1", "--c", "0.1", "--steps", "8", "--s0", "1e-2"]
    code, out = run_cli([*argv, "--format", "json-lines"])
    orbits = [rec for rec in map(json.loads, out.splitlines()) if "record" not in rec]
    assert code == 0 and "8 orbit(s), 0 failure(s)" in capsys.readouterr().err
    assert orbits[0]["amplitude"] > 1e-2 * (1.0 + 1e-6) and len(orbits) == 8


def test_branch_so3_sphere_of_equilibria(capsys):
    # three rotations declared, an orbit of dimension 2: analyze confirms
    # the radial level and the branch pins only the two orbit generators
    code, out = run_cli(["analyze", "--config", str(DATA / "so3-hat.ini"), "--format", "json-lines"])
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and (rec["verdict"], rec["morse_jump"], rec["degree"]) == ("confirmed", 2, 1)
    assert "orbit dim = 2" in capsys.readouterr().err
    code, out = run_cli(["branch", "--config", str(DATA / "so3-hat.ini"), "--steps", "5", "--s0", "1e-2"])
    assert code == 0 and "5 orbit(s), 0 failure(s)" in out and "branch verdict: ok" in out


def test_so3_sphere_with_one_declared_rotation_stays_inconclusive(tmp_path):
    # declaring only the q1 q2 rotation leaves a kernel direction of the
    # sphere outside the group orbit, so isolatedness is unverified
    text = (DATA / "so3-hat.ini").read_text(encoding="utf-8")
    path = tmp_path / "so3-one.ini"
    kept = [line for line in text.splitlines(True) if not line.startswith(("generator1", "generator2"))]
    path.write_text("".join(kept), encoding="utf-8")
    code, out = run_cli(["analyze", "--config", str(path)])
    assert code == 2 and "orbit dim = 1" in out
    assert "inconclusive" in out and "kernel dimension 2 differs from orbit dimension 1" in out


def test_csv_reasons_cell_is_the_json_lines_list():
    # reasons contain "; " themselves: kernel3.ini has 2 reasons and 5 "; " pieces
    argv = ["analyze", "--config", str(DATA / "kernel3.ini"), "--format"]
    _, lines = run_cli([*argv, "json-lines"])
    _, table = run_cli([*argv, "csv"])
    records = [json.loads(line) for line in lines.splitlines()]
    header, *rows = csv.reader(io.StringIO(table, newline=""))
    cells = [json.loads(row[header.index("reasons")]) for row in rows]
    assert cells == [rec["reasons"] for rec in records] and len(cells[0]) == 2


def test_branch_far_from_the_origin_reaches_its_tolerance(tmp_path):
    # |z0| = 1e6: Newton's stopping tolerance must scale with the rounding of
    # the collocation values, or the third step stalls at a residual of 7e-11
    out_path = tmp_path / "far.jsonl"
    argv = ["branch", "--config", str(DATA / "far-equilibrium.ini"), "--steps", "3", "--s0", "1e-2"]
    code, out = run_cli(argv + ["--format", "json-lines", "--output", str(out_path)])
    assert code == 0, out
    assert "branch verdict: ok" in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    orbit_records = [r for r in records if "period" in r]
    assert len(orbit_records) == 3
    assert all(r["residual"] < 1e-9 * (1.0 + 1e6) for r in orbit_records)


def test_analyze_far_section_is_confirmed(capsys):
    # the refinement accepts |grad H| = 1.5e-8 at |z0| = 8.05e7; the section
    # map's origin check must accept it too instead of raising ValueError
    code, out = run_cli(["analyze", "--config", str(DATA / "far-section.ini"), "--format", "json-lines"])
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert (record["verdict"], record["degree"], record["degree_path"]) == ("confirmed", 1, "nondegenerate")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "branch"])
def test_out_of_range_j0_is_an_error(capsys, command):
    code, out = run_cli([command, "--preset", "satellite", "--omega", "1", "--c", "0.1", "--j0", "5"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: j0 must be in 1..2, got 5\n"


def test_branch_forced_failure_partial_file(tmp_path):
    out_path = tmp_path / "fail.csv"
    code, out = run_cli(
        [
            "branch",
            "--config",
            str(_pendulum_like_config(tmp_path)),
            "--steps",
            "6",
            "--s0",
            "0.5",
            "--growth",
            "4",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert code == 1
    assert "failed:" in out
    rows = out_path.read_text().splitlines()
    assert rows[0].split(",") == list(cli.BRANCH_COLUMNS)
    assert 1 < len(rows) < 7  # partial table was still written


def _pendulum_like_config(tmp_path):
    # quartic softening well: the branch dies near the separatrix
    config = tmp_path / "soft.ini"
    config.write_text(
        "[system]\n"
        "n = 1\n"
        "monomials = 0.5 0 2 ; 0.5 2 0 ; -0.0416666666666666644 4 0\n",
        encoding="utf-8",
    )
    return config


def test_branch_without_confirmed_candidate(tmp_path):
    config = tmp_path / "none.ini"
    config.write_text("[system]\nn = 1\nmonomials = 0.5 2 0 ; -0.5 0 2\n", encoding="utf-8")
    code, out = run_cli(["branch", "--config", str(config)])
    assert code == 2
    assert "no confirmed candidate" in out


def test_analyze_coupled_springs_from_config(tmp_path):
    config = tmp_path / "springs.ini"
    config.write_text(
        "[system]\npreset = coupled-springs\nfrequencies = 1.0 2.0\n"
        "[output]\nformat = json-lines\n",
        encoding="utf-8",
    )
    code, out = run_cli(["analyze", "--config", str(config)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(records) == 2
    assert records[0]["verdict"] == "confirmed"
    assert abs(records[0]["period"] - np.pi) < 1e-7
    assert records[1]["verdict"] == "confirmed (period not certified minimal)"


def test_presets_listing_contains_satellite():
    code, out = run_cli(["presets"])
    assert code == 0
    assert "satellite" in out
    assert "1.0826359e-03" in out  # Earth J2 default


def test_console_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hambif", "presets"])
    with pytest.raises(SystemExit) as exit_info:
        cli.console_entry()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == (DATA / "presets.txt").read_text(encoding="utf-8")


def test_presets_machine_roundtrip():
    code, out = run_cli(["presets", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert {r["name"] for r in records} == {"satellite", "harmonic", "coupled-springs"}
    for rec in records:
        parsed = cli.parse_config(rec["sample_config"])
        assert parsed.preset == rec["name"]
        again = cli.parse_config(parsed.to_ini())
        assert again == parsed


def test_config_roundtrip_full():
    config = cli.RunConfig(
        preset="satellite",
        params=(("c", 0.1), ("omega", 1.0)),
        guess=(1.0, 0.0, 0.0, 0.0, -1.0, 0.0),
        j0=1,
        steps=5,
        s0=2e-3,
        growth=1.5,
        modes=6,
        fmt="json-lines",
        output="out.jsonl",
        seed=42,
    )
    assert cli.parse_config(config.to_ini()) == config


def test_config_roundtrip_inline():
    config = cli.RunConfig(
        n=1,
        monomials=((0.5, (2, 0)), (0.5, (0, 2)), (0.25, (4, 0))),
        generators=(((0.0, 1.0), (-1.0, 0.0)),),
        seed=7,
    )
    assert cli.parse_config(config.to_ini()) == config


def test_config_validation_errors():
    with pytest.raises(ConfigParse):
        cli.RunConfig()  # neither preset nor monomials
    with pytest.raises(ConfigParse):
        cli.RunConfig(preset="harmonic", monomials=((1.0, (2, 0)),), n=1)
    with pytest.raises(ConfigParse):
        cli.RunConfig(monomials=((1.0, (2, 0)),))  # missing n
    with pytest.raises(ConfigParse):
        cli.RunConfig(preset="harmonic", fmt="yaml")
    with pytest.raises(ConfigParse, match=re.escape("modes must be an integer in 1..64, got 100")):
        cli.RunConfig(preset="harmonic", modes=100)  # past orbits.MAX_MODES
    with pytest.raises(ConfigParse):
        cli.parse_config("[system]\npreset = harmonic\nbeta = abc\n")


def test_cli_error_exit_code(tmp_path):
    code, _ = run_cli(["analyze", "--config", str(tmp_path / "missing.ini")])
    assert code == 1


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    # the UnicodeDecodeError of reading the file escaped as a traceback
    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[system]\n")
    code, out = run_cli(["analyze", "--config", str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: cannot read config file: ")


def test_determinism_byte_identical(tmp_path):
    args = [
        "analyze",
        "--preset",
        "satellite",
        "--omega",
        "1",
        "--c",
        "0.1",
        "--seed",
        "3",
        "--format",
        "json-lines",
    ]
    outputs = set()
    for path in ("a.jsonl", "b.jsonl"):
        out_path = tmp_path / path
        code, _ = run_cli(args + ["--output", str(out_path)])
        assert code == 0
        outputs.add(out_path.read_bytes())
    assert len(outputs) == 1


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "base.ini"
    config.write_text(
        "[system]\npreset = harmonic\nbeta = 1.0\n", encoding="utf-8"
    )
    code, out = run_cli(
        ["analyze", "--config", str(config), "--beta", "2.0", "--format", "json-lines"]
    )
    assert code == 0
    rec = [json.loads(line) for line in out.splitlines() if line.startswith("{")][0]
    assert abs(rec["beta"] - 2.0) < 1e-12
    assert abs(rec["period"] - np.pi) < 1e-12


def test_module_entry_point_runs_without_runpy_warning():
    # importing the package must not execute hambif.cli before runpy does
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hambif.cli", "presets"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "satellite" in proc.stdout


def test_package_exports_only_its_modules():
    # the library is used through its modules; in a fresh interpreter cli
    # resolves through the package's lazy __getattr__
    assert hambif.__all__ == ["analysis", "cli", "degree", "errors", "linalg", "model", "orbits", "__version__"]
    script = (
        "import sys, hambif\n"
        "assert 'hambif.cli' not in sys.modules\n"
        "print([type(getattr(hambif, name)).__name__ for name in hambif.__all__])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["module"] * 7 + ["str"])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "harmonic", "--beta", "1"],
        ["branch", "--preset", "harmonic", "--beta", "1", "--steps", "3"],
        ["presets"],
    ],
    ids=["analyze", "branch", "presets"],
)
@pytest.mark.parametrize("fmt", ["json-lines", "csv"])
def test_machine_output_alone_on_stdout(argv, fmt, capsys):
    # without --output the payload owns stdout and the text report goes to stderr
    code, out = run_cli(argv + ["--format", fmt])
    assert code == 0
    if fmt == "json-lines":
        records = [json.loads(line) for line in out.splitlines()]
        assert records
    else:
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) > 1
        assert len({len(row) for row in rows}) == 1
    assert capsys.readouterr().err.strip()


def test_text_report_to_stdout_and_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, out = run_cli(["analyze", "--preset", "harmonic", "--format", "text", "--output", str(out_path)])
    assert code == 0
    assert out == out_path.read_text(encoding="utf-8")
    assert "confirmed" in out
    assert capsys.readouterr().err == ""


def test_csv_coefficients_only_beside_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(["branch", "--preset", "harmonic", "--steps", "3", "--format", "csv"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, rows", [("text", 0), ("json-lines", 0), ("csv", 3 * 9 * 2)])
def test_branch_builds_the_coefficient_table_only_for_csv(tmp_path, monkeypatch, fmt, rows):
    # one row per orbit, Fourier index 0..M and component: 3 orbits, M = 8, 2 components
    built, record = [], cli._record
    monkeypatch.setattr(cli, "_record", lambda table, *sources: built.append(table) or record(table, *sources))
    code, _ = run_cli(["branch", "--preset", "harmonic", "--steps", "3", "--format", fmt, "--output", str(tmp_path / "out")])
    assert code == 0 and built.count(cli._COEFF_ROW) == rows


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json-lines", "jsonl"), ("csv", "csv")])
def test_presets_golden_output(tmp_path, fmt, ext):
    out_path = tmp_path / f"presets.{ext}"
    code, _ = run_cli(["presets", "--format", fmt, "--output", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == (DATA / f"presets.{ext}").read_bytes()


def test_presets_unknown_format_is_a_config_error():
    with pytest.raises(ConfigParse, match="unknown output format 'xml'"):
        cli.cmd_presets("xml", stdout=io.StringIO())


@pytest.mark.parametrize(
    "text",
    [
        "[system]\nn = 1\nmonomials = 0.5 2.5 0 ; 0.5 0 2\n",
        "[system]\npreset = harmonic\n[analysis]\nj0 = ten\n",
        "[system]\nn = 1\nmonomials = 0.5 -1 0 ; 0.5 0 2\n",
        "[system]\nn = 1.5\nmonomials = 0.5 2 0 ; 0.5 0 2\n",
        "[system]\npreset = harmonic\n[branch]\nsteps = 2.5\n",
        "[system]\npreset = harmonic\n[branch]\nmodes = eight\n",
        "[system]\npreset = harmonic\n[run]\nseed = 0.5\n",
        "[system]\npreset = harmonic\nbeta =\n",
    ],
    ids=["fractional-exponent", "j0", "negative-exponent", "n", "steps", "modes", "seed", "empty-parameter"],
)
def test_bad_config_values_are_config_errors(tmp_path, text, capsys):
    with pytest.raises(ConfigParse):
        cli.parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["branch", "--config", str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "case",
    [
        "[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\ngenerator1 = 1 0\n",
        "[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\ngenerator1 = 0 -1 0 0 ; 1 0 0 0 ; 0 0 0 -1 ; 0 0 1 0\n",
        "[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\ngenerator1 = 1 0 ; 0 1\n",
        ["--preset", "satellite", "--omega", "-1", "--c", "0.1"],
        "[system]\npreset = coupled-springs\nfrequencies = -1\n",
        "[system]\npreset = satellite\nomega = 1 2\n",
        "[system]\npreset = harmonic\ngamma = 2\n",
        "[system]\npreset = harmonic\nguess = 1 2 3\n",
    ],
    ids=[
        "generator-1x2",
        "generator-4x4-for-n-1",
        "generator-not-skew",
        "satellite-negative-omega",
        "negative-frequency",
        "parameter-list-for-number",
        "unknown-parameter",
        "guess-length",
    ],
)
@pytest.mark.parametrize("command", ["analyze", "branch"])
def test_bad_system_inputs_are_config_errors(tmp_path, capsys, command, case):
    # the model raises ValueError for these; the CLI reports them, it does not crash
    argv = case
    if isinstance(case, str):
        path = tmp_path / "bad.ini"
        path.write_text(case, encoding="utf-8")
        argv = ["--config", str(path)]
    code, out = run_cli([command, *argv])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "case, key",
    [
        (["analyze", "--preset", "satellite", "--omega", "nan", "--c", "0.1"], "omega"),
        (["analyze", "--preset", "satellite", "--omega", "1", "--c", "nan"], "c"),
        (["analyze", "--preset", "harmonic", "--beta", "inf"], "beta"),
        (["branch", "--preset", "harmonic", "--s0", "inf"], "s0"),
        (["branch", "--preset", "harmonic", "--growth", "nan"], "growth"),
        ("[system]\npreset = coupled-springs\nfrequencies = 1 nan\n", "frequencies"),
        ("[system]\npreset = harmonic\nguess = nan 0\n", "guess"),
        ("[system]\nn = 1\nmonomials = nan 2 0 ; 0.5 0 2\n", "monomials"),
        ("[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\ngenerator1 = 0 -inf ; inf 0\n", "generator1"),
    ],
    ids=["omega", "c", "beta", "s0", "growth", "frequencies", "guess", "monomial-coefficient", "generator-entry"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, case, key):
    # NaN passes every 'x <= 0' check; each non-finite number must be
    # rejected by name before it reaches numpy
    if isinstance(case, str):
        path = tmp_path / "bad.ini"
        path.write_text(case, encoding="utf-8")
        case = ["analyze", "--config", str(path)]
    code, out = run_cli(case)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(rf"\b{key}\b", err.splitlines()[0])


def test_overflowing_guess_is_an_error():
    # a fresh interpreter, with numpy's default warning handling: the
    # polynomial evaluators overflow silently, and the refinement's typed
    # error is the only line on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "hambif.cli", "analyze", "--config", str(DATA / "overflow-guess.ini")],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: the gradient norm at the guess is not finite\n"


def test_overflowing_guess_is_an_error_with_warnings_as_errors(capsys):
    # the evaluator's overflow warning is raised, and the typed error that
    # carries it must not overflow in turn while reporting where it happened
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(["analyze", "--config", str(DATA / "overflow-guess.ini")])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["analyze", "--preset", "harmonic"], ["presets"]], ids=["analyze", "presets"])
def test_unwritable_output_is_an_error(tmp_path, capsys, argv):
    path = tmp_path / "missing-dir" / "x.jsonl"
    code, out = run_cli([*argv, "--format", "json-lines", "--output", str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}")


def test_runtime_imports_no_scipy(tmp_path):
    # the package and both README commands run on numpy alone; scipy is a test-only oracle
    script = (
        "import sys, hambif, hambif.cli\n"
        "common = ['--preset', 'satellite', '--omega', '1', '--c', '0.1', '--format', 'json-lines']\n"
        "assert hambif.cli.main(['analyze', *common, '--output', sys.argv[1]]) == 0\n"
        "assert hambif.cli.main(['branch', *common, '--steps', '2', '--output', sys.argv[2]]) == 1\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    outputs = [tmp_path / "analyze.jsonl", tmp_path / "branch.jsonl"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, outputs)], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for path in outputs:
        assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_negative_exponent_rejected_in_run_config():
    # a negative exponent kept the term in the energy but dropped it from the derivatives
    with pytest.raises(ConfigParse):
        cli.RunConfig(n=1, monomials=((0.5, (-1, 0)), (0.5, (0, 2))))
    with pytest.raises(ConfigParse):
        cli.RunConfig(n=1, monomials=((0.5, (2, 0, 0)),))


def _loop_derivatives(coeffs, exps, z):
    """Gradient and Hessian by explicit loops over the dimensions (reference)."""
    dim = exps.shape[1]
    g = np.zeros(dim)
    h = np.zeros((dim, dim))
    for i in range(dim):
        mask = exps[:, i] > 0
        de = exps[mask].copy()
        de[:, i] -= 1.0
        g[i] = np.sum(coeffs[mask] * exps[mask, i] * np.prod(z**de, axis=1))
        for j in range(dim):
            factor = exps[:, i] * (exps[:, j] - float(i == j))
            mask = factor != 0.0
            de = exps[mask].copy()
            de[:, i] -= 1.0
            de[:, j] -= 1.0
            h[i, j] = np.sum(coeffs[mask] * factor[mask] * np.prod(z**de, axis=1))
    return g, h


@pytest.mark.parametrize(
    "monomials, reversor",
    [
        ("0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.2 1 1 1 1", [1.0, 1.0, -1.0, -1.0]),
        # one monomial odd in p: q1 p2
        ("0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.1 1 0 0 1", None),
        ("0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 3", None),
    ],
    ids=["even", "gyroscopic", "odd-power"],
)
def test_inline_reversor_only_when_every_monomial_is_even_in_p(monomials, reversor):
    system, _ = cli.build_system(cli.parse_config(f"[system]\nn = 2\nmonomials = {monomials}\n"))
    assert (system.reversor is None) if reversor is None else np.array_equal(system.reversor, reversor)


def test_polynomial_derivative_table_matches_loops():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(6):
            exps = rng.integers(0, 5, size=(int(rng.integers(1, 10)), 2 * n))
            coeffs = rng.standard_normal(len(exps))
            config = cli.RunConfig(n=n, monomials=tuple((float(c), tuple(int(e) for e in row)) for c, row in zip(coeffs, exps)))
            system, _ = cli.build_system(config)
            points = rng.uniform(-1.5, 1.5, size=(4, 2 * n))
            points[0, 0] = 0.0
            for z in points:
                g_ref, h_ref = _loop_derivatives(coeffs, exps.astype(float), z)
                # rounding is bounded by the sum of the absolute terms
                g_abs, h_abs = _loop_derivatives(np.abs(coeffs), exps.astype(float), np.abs(z))
                g, h = system.gradient(z), system.hessian(z)
                assert np.all(np.abs(g - g_ref) <= 1e-14 * g_abs)
                assert np.all(np.abs(h - h_ref) <= 1e-14 * h_abs)
                assert np.array_equal(h, h.T)


def test_generators_with_preset_are_an_error(tmp_path, capsys):
    # a preset brings its own symmetry; generators given beside it used to be dropped silently
    path = tmp_path / "run.ini"
    path.write_text("[system]\npreset = harmonic\ngenerator1 = 0 1 ; -1 0\n", encoding="utf-8")
    code, out = run_cli(["analyze", "--config", str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: generators cannot be given with preset")


def test_n_with_preset_is_an_error(tmp_path, capsys):
    # a preset fixes its own dimension; n given beside it used to be dropped silently
    path = tmp_path / "run.ini"
    path.write_text("[system]\npreset = harmonic\nn = 3\n", encoding="utf-8")
    code, out = run_cli(["analyze", "--config", str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: n cannot be given with preset")


@pytest.mark.parametrize(
    "text, flags, named",
    [
        ("[system]\nn = 1\nmonomials = 0.5 2 0 ; 0.5 0 2\ngues = 0.3 0\n", [], "gues"),
        ((DATA / "cubic.ini").read_text(encoding="utf-8"), ["--omega", "7"], "omega"),
    ],
    ids=["misspelled-key", "preset-flag"],
)
def test_preset_parameters_with_inline_monomials_are_an_error(tmp_path, capsys, text, flags, named):
    # the inline polynomial reads no parameter; a typo or a preset flag beside it used to be dropped silently
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["analyze", "--config", str(path), *flags])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith(f"error: inline monomials take no preset parameters, got {named}")


# H = (q1^2 + p1^2 + p2^2) / 2 + q2^4 / 4: the reduced section field is q2^3, degree +1
QUARTIC_SECTION = "[system]\nn = 2\nmonomials = 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.5 2 0 0 0 ; 0.25 0 4 0 0\n"


@pytest.mark.parametrize("name, expected_code", [("quartic", 0), ("cubic", 2)])
def test_negative_seed_on_degenerate_sections(tmp_path, capsys, name, expected_code):
    # the degree past the nondegenerate path used to draw random numbers
    # from the seed, and a negative seed ended in a numpy traceback
    path = DATA / "cubic.ini"
    if name == "quartic":
        path = tmp_path / "quartic.ini"
        path.write_text(QUARTIC_SECTION, encoding="utf-8")
    code, out = run_cli(["analyze", "--config", str(path), "--seed", "-1", "--format", "json-lines"])
    assert code == expected_code
    assert "Traceback" not in capsys.readouterr().err
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["degree_path"] for r in records] == ["reduced"]
    assert records[0]["verdict"].startswith("confirmed") == (name == "quartic")


@pytest.mark.parametrize(
    "argv",
    [
        ["--steps", "0"],
        ["--s0", "-1"],
        ["--growth", "0"],
        ["--modes", "0"],
        ["--modes", "100"],
        ["--j0", "0"],
        "[system]\nn = 0\nmonomials = 1\n",
        # continue_branch's rule for the last amplitude: these ran the
        # refinement and the analysis, then ended in its ValueError traceback
        ["--steps", "400", "--growth", "10"],
        ["--steps", "200", "--growth", "1e-3"],
    ],
    ids=["steps", "s0", "growth", "modes", "modes-above-max", "j0", "n", "last-overflows", "last-underflows"],
)
def test_out_of_range_run_options_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("a bad run configuration reached the refinement")

    monkeypatch.setattr(cli.model_mod, "refine_equilibrium", no_work)
    if isinstance(argv, str):
        path = tmp_path / "bad.ini"
        path.write_text(argv, encoding="utf-8")
        argv = ["--config", str(path)]
    else:
        argv = ["--preset", "harmonic", *argv]
    code, out = run_cli(["branch", *argv])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text, named",
    [
        ("[system]\npreset = harmonic\n[analysis]\nkmaxx = 0\n", "'kmaxx'"),
        ("[system]\npreset = harmonic\n[brnch]\nsteps = 3\n", "[brnch]"),
        ("[system]\npreset = harmonic\n[run]\nsteps = 3\n", "'steps'"),
        ("[DEFAULT]\nkmax = 3\n[system]\npreset = harmonic\n", "[DEFAULT]"),
    ],
    ids=["misspelled-key", "misspelled-section", "key-in-wrong-section", "default-section"],
)
def test_unknown_config_keys_and_sections_are_errors(text, named):
    with pytest.raises(ConfigParse, match=re.escape(named)):
        cli.parse_config(text)


@pytest.mark.parametrize("key", ["kmax = 20", "variants = szulkin definite-zj definite-z mplus"], ids=["kmax", "variants"])
def test_removed_analysis_keys_are_errors(key):
    name = key.split()[0]
    with pytest.raises(ConfigParse, match=f"unknown key '{name}' in \\[analysis\\]"):
        cli.parse_config(f"[system]\npreset = harmonic\n[analysis]\n{key}\n")


def test_kmax_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--preset", "harmonic", "--kmax", "5"], stdout=io.StringIO())
    assert exc.value.code == 2
    assert "unrecognized arguments: --kmax 5" in capsys.readouterr().err


def test_config_without_a_section_header_is_a_parse_error():
    with pytest.raises(ConfigParse, match="bad configuration: File contains no section headers"):
        cli.parse_config("x = 1")


def test_analyze_without_config_or_preset_is_an_error(capsys):
    code, out = run_cli(["analyze"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: either --config or --preset is required\n"


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = cli.parse_config(example)
    assert config.n == 1 and config.steps == 6 and config.s0 == 0.01
