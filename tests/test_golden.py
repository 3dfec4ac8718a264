"""Checked-in CLI outputs: each command of ``COMMANDS`` against its file in ``tests/data/golden/``.

A golden file holds one header record, ``{"command", "exit", "error"}``
(``error`` is the ``error: `` line on stderr, or null), and then the
command's json-lines stdout byte for byte.  The test re-runs each command
in-process and compares integers, strings, booleans, verdicts, reasons and
``modes`` exactly, except that a number inside a reason or an error line is
compared at ``FLOAT_TOL``; betas, levels, periods and amplitudes to
``TIGHT_TOL`` relative; coefficients to ``FLOAT_TOL`` of the orbit's
coefficient norm; every other float to ``FLOAT_TOL`` relative; and a
residual only as below the orbit tolerance ``1e-9 (1 + |a0|)``.  Stated
tolerances, not bytes, keep the test stable across BLAS builds, while a
phase flip, a verdict change or a lost orbit fails it.

After an intended change of output, regenerate the files of the commands
whose output moved, by name,

    PYTHONPATH=src python tests/test_golden.py branch-springs analyze-harmonic

(an unknown name is an error and writes nothing), or, with no names, every
file, the stale ones deleted; then name each file that moved, and why, in
``CHANGES.md``.  Regenerating by name keeps the last-digit moves that another
BLAS kernel makes in the other files out of the commit.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hambif import analysis, cli, model, orbits

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"

# cubic.ini is left out: its spurious level sits at the refinement's noise,
# so its output is not stable across BLAS builds (CI runs it on its own)
COMMANDS = {
    **{
        f"analyze-{path.stem}": f"analyze --config tests/data/{path.name}"
        for path in sorted((ROOT / "tests" / "data").glob("*.ini"))
        if path.stem != "cubic"
    },
    "analyze-satellite": "analyze --preset satellite --omega 1 --c 0.1",
    "analyze-harmonic": "analyze --preset harmonic --beta 1",
    "branch-satellite-j0-1": "branch --preset satellite --omega 1 --c 0.1 --steps 8 --s0 1e-3 --j0 1",
    "branch-satellite-j0-2": "branch --preset satellite --omega 1 --c 0.1 --steps 8 --s0 1e-3 --j0 2",
    # the configs whose header names a branch command, with --steps capped at 4
    "branch-far-equilibrium": "branch --config tests/data/far-equilibrium.ini --steps 3 --s0 1e-2",
    "branch-fixed-point": "branch --config tests/data/fixed-point.ini --steps 4 --s0 1e-2",
    "branch-gyroscopic": "branch --config tests/data/gyroscopic.ini --steps 4 --s0 1e-2",
    "branch-quartic-chain": "branch --config tests/data/quartic-chain.ini --steps 4 --s0 0.1",
    "branch-so3-hat": "branch --config tests/data/so3-hat.ini --steps 4 --s0 1e-2",
    "branch-springs": "branch --config tests/data/springs.ini --steps 4 --s0 1e-2",
}

TIGHT_TOL = 1e-12
TIGHT = {"beta", "lambda0", "period", "lambda", "amplitude"}
FLOAT_TOL = 1e-10
COEFFICIENTS = ("a0", "a", "b")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(command: str) -> list:
    """The golden lines of ``command``: its header record, then its json-lines stdout."""
    argv = [str(ROOT / arg) if arg.startswith("tests/") else arg for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json-lines"])
    error = next((line for line in err.getvalue().splitlines() if line.startswith("error: ")), None)
    header = json.dumps({"command": command, "exit": code, "error": error}, ensure_ascii=True)
    return [header, *out.getvalue().splitlines()]


def _close(new: float, old: float, rel: float) -> bool:
    return (math.isnan(new) and math.isnan(old)) or math.isclose(new, old, rel_tol=rel, abs_tol=0.0)


def _same_text(new, old) -> bool:
    """Equal text around the numbers, and each number within ``FLOAT_TOL`` relative."""
    if new is None or old is None:
        return new is old
    pairs = zip(NUMBER.findall(new), NUMBER.findall(old))
    return NUMBER.split(new) == NUMBER.split(old) and all(_close(float(x), float(y), FLOAT_TOL) for x, y in pairs)


def _mismatch(key, new, old, record, a0) -> bool:
    if key in COEFFICIENTS:
        norm = math.sqrt(sum(float(np.sum(np.square(record[k]))) for k in COEFFICIENTS))
        return np.shape(new) != np.shape(old) or np.max(np.abs(np.subtract(new, old))) > FLOAT_TOL * norm
    if key == "residual":
        tol = 1e-9 * (1.0 + float(np.linalg.norm(a0[record["index"]])))
        return not (new < tol and old < tol)
    if key == "reasons":
        return len(new) != len(old) or not all(map(_same_text, new, old))
    if type(new) is not type(old):
        return True
    if isinstance(old, float):
        return not _close(new, old, TIGHT_TOL if key in TIGHT else FLOAT_TOL)
    return new != old


def assert_matches_golden(name: str, lines: list) -> None:
    """``lines``, as ``run`` gives them, against the golden file ``name`` by the rules of the module docstring."""
    golden = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    new, old = ([json.loads(line) for line in lines] for lines in (lines, golden))
    assert new[0]["command"] == old[0]["command"] and new[0]["exit"] == old[0]["exit"], (new[0], old[0])
    assert _same_text(new[0]["error"], old[0]["error"]), (new[0]["error"], old[0]["error"])
    assert len(new) == len(old), f"{name}: {len(new) - 1} records, golden {len(old) - 1}"
    a0 = {rec["index"]: rec["a0"] for rec in old[1:] if rec.get("record") == "coefficients"}
    for rec, ref in zip(new[1:], old[1:]):
        assert list(rec) == list(ref), (name, list(rec), list(ref))
        for key in ref:
            assert not _mismatch(key, rec[key], ref[key], ref, a0), (name, rec.get("record"), rec["index"], key, rec[key], ref[key])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_its_golden_file(name):
    assert_matches_golden(name, run(COMMANDS[name]))


def _negated(subspaces):
    def negated(*args):
        bases, inertias = subspaces(*args)
        return tuple(-e for e in bases), inertias

    return negated


def _rotated(subspaces):
    """``subspaces`` with every simple level's plane rotated by pi/5 in itself; a wider basis as it was."""
    c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)

    def rotated(*args):
        bases, inertias = subspaces(*args)
        return tuple(e @ np.array([[c, -s], [s, c]]) if e.shape[1] == 2 else e for e in bases), inertias

    return rotated


def _section_negated(bases):
    def negated(*args):
        section, coefficients = bases(*args)
        return -section, coefficients

    return negated


BASIS_CHANGES = {
    "invariant-subspace-negated": (analysis, "_invariant_subspaces", _negated),
    "invariant-subspace-rotated": (analysis, "_invariant_subspaces", _rotated),
    "section-negated": (model, "_orbit_bases", _section_negated),
}


@pytest.mark.parametrize("change", sorted(BASIS_CHANGES))
def test_kernel_pair_and_branch_ignore_basis_choices(monkeypatch, change):
    # the kernel pair, so the branch's sign and time origin, depends on the
    # level's subspace and the system alone, never on the basis a routine returns
    system = model.preset("satellite", omega=1.0, c=0.1)

    def pairs():
        eq = model.refine_equilibrium(system, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
        bases = (*analysis.spectral_report(system, eq).subspaces, eq.section_basis)
        return [orbits.kernel_direction(system, eq, cand) for cand in analysis.analyze(system, eq)], bases

    before, bases = pairs()
    module, name, change_basis = BASIS_CHANGES[change]
    monkeypatch.setattr(module, name, change_basis(getattr(module, name)))
    after, changed_bases = pairs()
    # the change reaches the chain: a basis it reads is not the one it read before
    assert max(np.max(np.abs(e - changed)) for e, changed in zip(bases, changed_bases)) > 0.1
    assert len(before) == len(after) == 2
    for pair, changed in zip(before, after):
        assert np.max(np.abs(np.subtract(pair, changed))) <= 1e-15
    for j0 in (1, 2):
        assert_matches_golden(f"branch-satellite-j0-{j0}", run(COMMANDS[f"branch-satellite-j0-{j0}"]))


def test_readme_library_example_prints_the_golden_satellite_branch():
    # README's python block continues candidate 0 of the satellite, the
    # branch of `branch ... --j0 1`: one line of amplitude, period and
    # residual per orbit, at the golden file's tolerances
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    lines = [[float(word) for word in line.split()] for line in out.getvalue().splitlines()]
    golden = [json.loads(line) for line in (GOLDEN / "branch-satellite-j0-1.jsonl").read_text(encoding="utf-8").splitlines()]
    orbit_records = [rec for rec in golden[1:] if "period" in rec]
    a0 = {rec["index"]: rec["a0"] for rec in golden[1:] if rec.get("record") == "coefficients"}
    assert len(lines) == len(orbit_records) == 8
    for (amplitude, period, residual), rec in zip(lines, orbit_records):
        assert _close(amplitude, rec["amplitude"], TIGHT_TOL) and _close(period, rec["period"], TIGHT_TOL)
        assert not _mismatch("residual", residual, rec["residual"], rec, a0)


def test_golden_files_are_the_command_matrix():
    assert sorted(path.stem for path in GOLDEN.glob("*.jsonl")) == sorted(COMMANDS)


def regenerate(names, directory: Path = GOLDEN) -> list:
    """Write the golden file of each command in ``names`` to ``directory``, or, with no names, of every command, the stale files deleted; return the paths written."""
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        raise ValueError(f"unknown golden file name(s): {', '.join(unknown)}")
    directory.mkdir(parents=True, exist_ok=True)
    if not names:
        for stale in directory.glob("*.jsonl"):
            stale.unlink()
    paths = [directory / f"{name}.jsonl" for name in names or COMMANDS]
    for path in paths:
        path.write_text("".join(f"{line}\n" for line in run(COMMANDS[path.stem])), encoding="utf-8")
    return paths


def test_regenerating_by_name_writes_only_the_named_files(tmp_path):
    (path,) = regenerate(["analyze-harmonic"], tmp_path)
    assert list(tmp_path.iterdir()) == [path] == [tmp_path / "analyze-harmonic.jsonl"]
    assert path.read_text(encoding="utf-8").splitlines() == run(COMMANDS["analyze-harmonic"])
    with pytest.raises(ValueError, match=r"^unknown golden file name\(s\): no-such-command$"):
        regenerate(["analyze-harmonic", "no-such-command"], tmp_path / "unknown")
    assert not (tmp_path / "unknown").exists()


if __name__ == "__main__":
    try:
        written = regenerate(sys.argv[1:])
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"wrote {len(written)} golden file(s) to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
