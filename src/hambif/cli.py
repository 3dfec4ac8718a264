"""Command-line front end: analyze, branch, presets.

Configuration is a flat key = value file with sections ([system],
[analysis], [branch], [output], [run]); every value can be overridden on
the command line.  Each command builds its records once, each from the one
ordered column -> value table of its kind (candidate, orbit, coefficients,
coefficient row).  The text report, json-lines (one record per line) and
csv (header row + the table's column order) are all rendered from those
records, and ``_emit`` alone decides where they are written.  Identical
configuration produces byte-identical machine output on one machine and
numpy/OpenBLAS build; across BLAS kernels the values agree within the
golden tolerances of ``tests/test_golden.py`` (README).

Exit codes: analyze returns 0 when at least one candidate is confirmed,
2 when none is, 1 on error.  branch returns 0 when the computed branch has
at least three orbits and healthy trends, 2 when no confirmed candidate is
available, 1 otherwise (partial data is still written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis as analysis_mod
from . import model as model_mod
from . import orbits as orbits_mod
from .errors import ConfigParse, HambifError
from .model import HamiltonianSystem, SymmetryGroup

__all__ = ["RunConfig", "parse_config", "main", "console_entry", "cmd_analyze", "cmd_branch", "cmd_presets"]

# One ordered column -> value table per record kind; its keys are the
# json-lines keys and the csv columns.
_CANDIDATE = {
    "index": lambda i, cand: i,
    "j0": lambda i, cand: cand.j0,
    "beta": lambda i, cand: cand.beta,
    "multiplicity": lambda i, cand: cand.multiplicity,
    "lambda0": lambda i, cand: cand.lambda0,
    "period": lambda i, cand: cand.predicted_period,
    "nonresonant": lambda i, cand: cand.nonresonant,
    "morse_jump": lambda i, cand: cand.morse_jump,
    "degree": lambda i, cand: cand.degree_on_section,
    "degree_path": lambda i, cand: cand.degree_path,
    "degree_reliable": lambda i, cand: cand.degree_reliable,
    "szulkin": lambda i, cand: cand.a7_results.get("szulkin"),
    "definite_zj": lambda i, cand: cand.a7_results.get("definite-zj"),
    "definite_z": lambda i, cand: cand.a7_results.get("definite-z"),
    "mplus": lambda i, cand: cand.a7_results.get("mplus"),
    "verdict": lambda i, cand: cand.verdict,
    "theorem_path": lambda i, cand: cand.theorem_path,
    "reasons": lambda i, cand: list(cand.reasons),
}

_ORBIT = {
    "index": lambda i, orbit, branch: i,
    "amplitude": lambda i, orbit, branch: orbit.amplitude,
    "lambda": lambda i, orbit, branch: orbit.lam,
    "period": lambda i, orbit, branch: orbit.period,
    "residual": lambda i, orbit, branch: orbit.residual,
    "sup_distance": lambda i, orbit, branch: branch.sup_distance_trend[i - 1][1],
    "minimal_period": lambda i, orbit, branch: orbits_mod.minimal_period_check(orbit),
}

# json-lines only: one per orbit, after the orbit records
_COEFFICIENTS = {
    "record": lambda i, orbit: "coefficients",
    "index": lambda i, orbit: i,
    "modes": lambda i, orbit: orbit.m,
    "a0": lambda i, orbit: orbit.a0.tolist(),
    "a": lambda i, orbit: orbit.a.tolist(),
    "b": lambda i, orbit: orbit.b.tolist(),
}

# csv side table, one row per coefficient of a coefficients record; k = 0
# rows hold the constant coefficient in 'a'
_COEFF_ROW = {
    "index": lambda rec, k, comp: rec["index"],
    "k": lambda rec, k, comp: k,
    "component": lambda rec, k, comp: comp,
    "a": lambda rec, k, comp: (rec["a"][k - 1] if k else rec["a0"])[comp],
    "b": lambda rec, k, comp: rec["b"][k - 1][comp] if k else None,
}

ANALYZE_COLUMNS = tuple(_CANDIDATE)
BRANCH_COLUMNS = tuple(_ORBIT)
COEFF_COLUMNS = tuple(_COEFF_ROW)

FORMATS = ("text", "json-lines", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; exactly one of preset / monomials is set."""

    preset: str | None = None
    params: tuple = ()  # sorted (name, value) pairs; value float or tuple of floats
    n: int | None = None
    monomials: tuple = ()  # ((coeff, (e_1, ..., e_2N)), ...)
    generators: tuple = ()  # tuples of row tuples
    guess: tuple | None = None
    j0: int | None = None
    steps: int = 8
    s0: float = 1e-3
    growth: float = 2.0
    modes: int = 8
    fmt: str = "text"
    output: str | None = None
    seed: int = 0  # accepted for compatibility; nothing is randomized

    def __post_init__(self):
        if (self.preset is None) == (not self.monomials):
            raise ConfigParse("exactly one of 'preset' or 'monomials' must be given")
        if self.monomials and self.n is None:
            raise ConfigParse("inline monomials require 'n' (half the phase dimension)")
        if self.preset is not None and self.generators:
            raise ConfigParse(f"generators cannot be given with preset {self.preset!r}: presets bring their own symmetry")
        if self.preset is not None and self.n is not None:
            raise ConfigParse(f"n cannot be given with preset {self.preset!r}: presets bring their own dimension")
        if self.monomials and self.params:
            raise ConfigParse(f"inline monomials take no preset parameters, got {', '.join(k for k, _ in self.params)}")
        for key, value in (("n", self.n), ("j0", self.j0)):
            if value is not None and value < 1:
                raise ConfigParse(f"{key} must be at least 1, got {value}")
        try:
            # the rules continue_branch applies
            orbits_mod._check_ladder(self.steps, self.s0, self.growth)
            orbits_mod._check_modes(self.modes)
        except ValueError as exc:
            raise ConfigParse(str(exc)) from exc
        for _, exps in self.monomials:
            if len(exps) != 2 * self.n or any(e < 0 for e in exps):
                raise ConfigParse(f"a monomial needs {2 * self.n} non-negative exponents, got {list(exps)}")
        for rows in self.generators:
            if len(rows) != 2 * self.n or any(len(row) != 2 * self.n for row in rows):
                lengths = [len(row) for row in rows]
                raise ConfigParse(f"a generator must be {2 * self.n} x {2 * self.n}, got rows of lengths {lengths}")
        numbers = [*self.params, ("guess", self.guess or ()), *(("monomials", c) for c, _ in self.monomials)]
        numbers += [(f"generator{i}", rows) for i, rows in enumerate(self.generators, start=1)]
        for key, value in numbers:
            bad = [v for v in np.ravel(value) if not np.isfinite(v)]
            if bad:
                raise ConfigParse(f"non-finite value {bad[0]} for {key}")
        if self.fmt not in FORMATS:
            raise ConfigParse(f"unknown output format {self.fmt!r}")

    def to_ini(self) -> str:
        """Deterministic flat-text serialization; parse_config inverts it."""
        sections: dict = {}
        for section, key, name, _, _, show in _KEYS:
            value = getattr(self, name)
            lines = sections.setdefault(section, [])
            if value is None or value == () == getattr(RunConfig, name):
                continue  # unset: None, or empty by default (the monomials of a preset run)
            lines.append(f"{key} = {show(value)}")
        system = sections["system"]
        system += [f"{key} = {_show_param(value)}" for key, value in self.params]
        system += [f"generator{i} = {_show_matrix(g)}" for i, g in enumerate(self.generators, start=1)]
        blocks = (f"[{name}]\n" + "".join(f"{line}\n" for line in lines) for name, lines in sections.items())
        return "\n".join(blocks)


def _fmt(x) -> str:
    """Shortest exact decimal form (round-trips bit-faithfully)."""
    return repr(float(x))


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split())


def _show_floats(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _param(text: str):
    values = _floats(text)
    if not values:
        raise ValueError("expected at least one number")
    return values if len(values) > 1 else values[0]


def _show_param(value) -> str:
    return _show_floats(value) if isinstance(value, tuple) else _fmt(value)


def _matrix(text: str) -> tuple:
    return tuple(_floats(row) for row in text.split(";"))


def _show_matrix(rows) -> str:
    return " ; ".join(_show_floats(row) for row in rows)


def _monomials(text: str) -> tuple:
    terms = [part.split() for part in text.split(";")]
    return tuple((float(t[0]), tuple(int(e) for e in t[1:])) for t in terms if t)


def _show_monomials(terms) -> str:
    return " ; ".join(" ".join([_fmt(c)] + [str(e) for e in exps]) for c, exps in terms)


# Every fixed configuration key: (section, key, RunConfig field, command-line
# flag or None, parse, show).  parse raises ValueError on a malformed value.
# The other [system] keys are generator1, generator2, ... and preset parameters;
# parse_config rejects any other key or section.
_KEYS = (
    ("system", "preset", "preset", "preset", str, str),
    ("system", "n", "n", None, int, str),
    ("system", "monomials", "monomials", None, _monomials, _show_monomials),
    ("system", "guess", "guess", None, _floats, _show_floats),
    ("analysis", "j0", "j0", "j0", int, str),
    ("branch", "steps", "steps", "steps", int, str),
    ("branch", "s0", "s0", "s0", float, _fmt),
    ("branch", "growth", "growth", "growth", float, _fmt),
    ("branch", "modes", "modes", "modes", int, str),
    ("output", "format", "fmt", "format", str, str),
    ("output", "path", "output", "output", str, str),
    ("run", "seed", "seed", "seed", int, str),
)

_SECTION_KEYS = {section: {key for s, key, *_ in _KEYS if s == section} for section, *_ in _KEYS}


def _parse_value(section: str, key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigParse(f"[{section}] {key} = {text!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value configuration format; an unknown section or key is an error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParse(f"bad configuration: {exc}") from exc
    if parser.defaults():
        raise ConfigParse(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigParse(f"unknown section [{section}]")
        for key in parser.options(section) if section != "system" else ():
            if key not in _SECTION_KEYS[section]:
                raise ConfigParse(f"unknown key {key!r} in [{section}]")
    kw = {
        name: _parse_value(section, key, parse, parser.get(section, key))
        for section, key, name, _, parse, _ in _KEYS
        if parser.has_option(section, key)
    }
    if parser.has_section("system"):
        free = sorted((k, v) for k, v in parser.items("system") if k not in _SECTION_KEYS["system"])
        gens = [(k, v) for k, v in free if k.startswith("generator")]
        kw["generators"] = tuple(_parse_value("system", k, _matrix, v) for k, v in gens)
        kw["params"] = tuple((k, _parse_value("system", k, _param, v)) for k, v in free if (k, v) not in gens)
    return RunConfig(**kw)


def _polynomial_system(config: RunConfig) -> HamiltonianSystem:
    """``H(z) = sum_m c_m prod_i z_i^e_mi`` with tabulated first and second derivatives.

    An exponent is lowered below 0 only in a term whose factor is 0, so the
    lowered exponents are clipped at 0 and each derivative is one product
    over the whole table.  When every monomial has even degree in ``p``,
    ``H(q, -p) = H(q, p)`` exactly and the system carries the reversor
    ``diag(I, -I)``.
    """
    dim = 2 * config.n
    eye = np.eye(dim)
    coeffs = np.array([c for c, _ in config.monomials])
    exps = np.array([e for _, e in config.monomials], dtype=float)  # (terms, dim)
    # d/dz_i: factor c e_i, exponents e - e_i; shapes (terms, i) and (terms, i, dim)
    grad_factor = coeffs[:, None] * exps
    grad_exps = np.clip(exps[:, None, :] - eye, 0.0, None)
    # d2/dz_i dz_j: factor c e_i (e_j - delta_ij), exponents e - e_i - e_j
    hess_factor = coeffs[:, None, None] * (exps[:, :, None] * (exps[:, None, :] - eye))
    hess_exps = np.clip(exps[:, None, None, :] - eye[:, None, :] - eye[None, :, :], 0.0, None)

    # silent overflow: the refinement reports a non-finite gradient as a typed error
    quiet = np.errstate(over="ignore", invalid="ignore")

    @quiet
    def energy(z):
        return float(np.sum(coeffs * np.prod(z**exps, axis=1)))

    @quiet
    def gradient(z):
        return np.sum(grad_factor * np.prod(z**grad_exps, axis=-1), axis=0)

    @quiet
    def hessian(z):
        return np.sum(hess_factor * np.prod(z**hess_exps, axis=-1), axis=0)

    even_in_p = all(sum(e[config.n :]) % 2 == 0 for _, e in config.monomials)
    return HamiltonianSystem(
        n=config.n,
        energy=energy,
        gradient=gradient,
        hessian=hessian,
        symmetry=SymmetryGroup(config.generators),
        name="inline-polynomial",
        reversor=np.repeat([1.0, -1.0], config.n) if even_in_p else None,
    )


def build_system(config: RunConfig) -> tuple:
    """System plus the default equilibrium guess for it.

    The model rejects bad parameters and generators with ``ValueError``, or
    ``TypeError`` for a list where a number belongs; both are configuration
    errors here.
    """
    params = {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.params}
    try:
        if config.preset is None:
            system = _polynomial_system(config)
        else:
            system = model_mod.preset(config.preset, params)
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"bad system: {exc}") from exc
    if config.guess is not None:
        if len(config.guess) != system.dim:
            raise ConfigParse(f"guess needs {system.dim} numbers, got {len(config.guess)}")
        return system, np.array(config.guess, dtype=float)
    if config.preset == "satellite":
        omega = float({**model_mod.preset_info()["satellite"]["parameters"], **params}["omega"])
        return system, np.array([1.0, 0.0, 0.0, 0.0, -omega, 0.0])
    return system, np.zeros(system.dim)


def _record(table: dict, *sources) -> dict:
    return {column: value(*sources) for column, value in table.items()}


def _flag(value) -> str:
    return "-" if value is None else "yes" if value else "no"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".17g")  # a fixed 17-significant-digit form
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value), ensure_ascii=True)  # json.loads gives the json-lines list back
    return str(value)


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for rec in rows:
        cells = [_csv_cell(rec.get(col)) for col in columns]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if ("," in c or '"' in c) else c for c in cells))
    return "\n".join(lines) + "\n"


def _emit(stdout, fmt: str, path: str | None, lines, records, table, side=None) -> None:
    """Write one command's output (no other function does), by the rule in ``_HELP_EPILOG``.

    ``lines`` are the text report's lines, ``records`` the json-lines payload,
    ``table`` the csv payload as ``(columns, rows)`` and ``side`` the csv
    table for ``<path>.coeffs.csv``.
    """
    stdout = sys.stdout if stdout is None else stdout
    report = "".join(f"{line}\n" for line in lines)
    if fmt == "text":
        payload = report
    elif fmt == "json-lines":
        payload = "".join(json.dumps(rec, ensure_ascii=True) + "\n" for rec in records)
    elif fmt == "csv":
        payload = _csv(*table)
    else:
        raise ConfigParse(f"unknown output format {fmt!r}")
    if path is None:
        stdout.write(payload)
        if fmt != "text":
            sys.stderr.write(report)
        return
    files = [(path, payload)]
    if fmt == "csv" and side is not None:
        files.append((path + ".coeffs.csv", _csv(*side)))
    for name, text in files:
        try:
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigParse(f"cannot write {name}: {exc.strerror or exc}") from exc
    stdout.write(report)


def _run_analysis(config: RunConfig):
    system, guess = build_system(config)
    eq = model_mod.refine_equilibrium(system, guess)
    candidates = analysis_mod.analyze(system, eq, analysis_mod.AnalyzeOptions(j0=config.j0))
    return system, eq, candidates


def cmd_analyze(config: RunConfig, stdout=None) -> int:
    system, eq, candidates = _run_analysis(config)
    records = [_record(_CANDIDATE, i, cand) for i, cand in enumerate(candidates, start=1)]
    lines = [
        f"system: {system.name or 'custom'} (N={system.n})",
        f"equilibrium: |grad H| = {eq.gradient_norm:.3e}, orbit dim = {eq.orbit_dim}",
    ]
    if not candidates:
        lines.append("no purely imaginary eigenvalue pairs: no candidate levels")
    else:
        diag = candidates[0].diagnostics
        lines.append(
            f"hessian: m+ = {diag['m_plus']}, m- = {diag['m_minus']}, kernel dim = {diag['kernel_dim']}, "
            f"orbit nondegenerate = {'yes' if diag['orbit_nondegenerate'] else 'no'}"
        )
        lines.append(
            f"{'idx':>3} {'j0':>3} {'beta':>12} {'lambda0':>12} {'period':>12} "
            f"{'A6':>3} {'jump':>4} {'degree':>7} {'path':>13} "
            f"{'A7.1':>4} {'A7.3':>4} {'A7.4':>4} {'A7.5':>4}  verdict"
        )
        for rec in records:
            jump, degree = ("?" if v is None else f"{v:+d}" for v in (rec["morse_jump"], rec["degree"]))
            lines.append(
                f"{rec['index']:>3} {rec['j0']:>3} {rec['beta']:>12.6f} {rec['lambda0']:>12.6f} "
                f"{rec['period']:>12.6f} {_flag(rec['nonresonant']):>3} {jump:>4} {degree:>7} "
                f"{str(rec['degree_path']):>13} {_flag(rec['szulkin']):>4} {_flag(rec['definite_zj']):>4} "
                f"{_flag(rec['definite_z']):>4} {_flag(rec['mplus']):>4}  {rec['verdict']}"
            )
            lines += [f"      - {reason}" for reason in rec["reasons"]]
    _emit(stdout, config.fmt, config.output, lines, records, (ANALYZE_COLUMNS, records))
    return 0 if any(c.confirmed for c in candidates) else 2


def cmd_branch(config: RunConfig, stdout=None) -> int:
    system, eq, candidates = _run_analysis(config)
    # the candidate with the configured j0, else the first confirmed one; it must be confirmed
    picks = [c for c in candidates if (c.confirmed if config.j0 is None else c.j0 == config.j0)]
    if not picks or not picks[0].confirmed:
        _emit(stdout, config.fmt, config.output, ["no confirmed candidate to verify"], [], (BRANCH_COLUMNS, []))
        return 2
    chosen = picks[0]
    branch = orbits_mod.continue_branch(
        system,
        eq,
        chosen,
        steps=config.steps,
        s0=config.s0,
        growth=config.growth,
        modes=config.modes,
    )
    numbered = list(enumerate(branch.orbits, start=1))
    records = [_record(_ORBIT, i, orbit, branch) for i, orbit in numbered]
    coeff_records = [_record(_COEFFICIENTS, i, orbit) for i, orbit in numbered]
    coeff_rows = [
        _record(_COEFF_ROW, rec, k, comp)
        for rec in (coeff_records if config.fmt == "csv" else ())  # only the csv side table reads them
        for k in range(rec["modes"] + 1)
        for comp in range(len(rec["a0"]))
    ]
    lines = [
        f"candidate j0={chosen.j0}: beta = {chosen.beta:.9g}, predicted period = "
        f"{chosen.predicted_period:.9g}",
        f"branch: {len(branch.orbits)} orbit(s), {len(branch.failures)} failure(s)",
    ]
    for rec in records:
        lines.append(
            f"  amplitude {rec['amplitude']:.6e}  period {rec['period']:.9f}  "
            f"residual {rec['residual']:.2e}  sup|z - z0| {rec['sup_distance']:.3e}  "
            f"{rec['minimal_period']}"
        )
    for failure in branch.failures:
        lines.append(f"  failed: {failure}")
    ok = _branch_healthy(records, chosen)
    if branch.orbits:
        smallest = records[0]
        lines.append(
            f"period limit at smallest amplitude: {smallest['period']:.12g} "
            f"(prediction gap {abs(smallest['period'] - chosen.predicted_period):.3e})"
        )
        lines.append(f"sup-distance at smallest amplitude: {smallest['sup_distance']:.3e}")
    lines.append(f"branch verdict: {'ok' if ok else 'not verified'}")
    _emit(
        stdout,
        config.fmt,
        config.output,
        lines,
        records + coeff_records,
        (BRANCH_COLUMNS, records),
        side=(COEFF_COLUMNS, coeff_rows),
    )
    return 0 if ok else 1


def _branch_healthy(records, candidate) -> bool:
    amps = [rec["amplitude"] for rec in records]
    if len(amps) < 3 or any(a2 <= a1 for a1, a2 in zip(amps, amps[1:])):
        return False
    gaps = [abs(rec["period"] - candidate.predicted_period) for rec in records]
    return gaps[0] <= gaps[-1] + 1e-12 and records[0]["sup_distance"] <= records[-1]["sup_distance"]


def cmd_presets(fmt: str = "text", output: str | None = None, stdout=None) -> int:
    info = model_mod.preset_info()
    # each sample configuration sets these parameters, at their defaults or at an example value
    sample_keys = {"satellite": ("c", "omega"), "harmonic": ("beta",), "coupled-springs": ("frequencies",)}
    examples = {"frequencies": (1.0, 2.0)}  # a required parameter has no default
    records = []
    for name, entry in sorted(info.items()):
        values = {**entry["parameters"], **examples}
        sample = RunConfig(preset=name, params=tuple((key, values[key]) for key in sample_keys[name]))
        records.append(
            {
                "record": "preset",
                "name": name,
                "parameters": {k: (None if v is None else float(v)) for k, v in sorted(entry["parameters"].items())},
                "notes": entry["notes"],
                "sample_config": sample.to_ini(),
            }
        )
    lines = []
    rows = []
    for rec in records:
        shown = {k: "required" if v is None else _fmt(v) for k, v in rec["parameters"].items()}
        lines += [f"{rec['name']}:", *(f"  {k} = {v}" for k, v in shown.items()), f"  note: {rec['notes']}"]
        rows.append({**rec, "parameters": " ".join(f"{k}={v}" for k, v in shown.items())})
    _emit(stdout, fmt, output, lines, records, (("name", "parameters", "notes"), rows))
    return 0


_HELP_EPILOG = """\
machine output formats:
  json-lines: one JSON record per line.  analyze emits candidate records with
    keys in the order: %s.
    branch emits orbit records (keys: %s)
    followed by one coefficients record per orbit (%s).
  csv: header row then one row per record, columns as above, a list cell as
    a JSON array; with --output, branch coefficient tables go to
    <path>.coeffs.csv with columns %s
    (k = 0 rows hold the constant coefficient in 'a').
Floats are printed with up to 17 significant digits; identical configuration
gives byte-identical machine output on one machine and numpy/OpenBLAS build;
another BLAS kernel (another CPU) may change the last bits of values.
With --output PATH the output goes to PATH and the text report to stdout.
Without it, json-lines or csv output is alone on stdout and the text report
goes to stderr; text output goes to stdout.
""" % (
    ", ".join(ANALYZE_COLUMNS),
    ", ".join(BRANCH_COLUMNS),
    ", ".join(_COEFFICIENTS),
    ", ".join(COEFF_COLUMNS),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambif",
        description="Detect candidate bifurcation levels of periodic orbits near "
        "symmetric Hamiltonian equilibria and verify them by computing the "
        "emanating branch.",
        epilog=_HELP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write machine output to this path")
        p.add_argument("--format", choices=FORMATS, help="output format")

    def add_common(p):
        p.add_argument("--config", help="configuration file (flat key = value with sections)")
        p.add_argument("--preset", help="preset name (see the presets command)")
        p.add_argument("--omega", type=float, help="satellite spin rate")
        p.add_argument("--c", type=float, help="satellite oblateness strength")
        p.add_argument("--beta", type=float, help="harmonic oscillator frequency")
        p.add_argument("--j0", type=int, help="restrict to one candidate index")
        p.add_argument("--seed", type=int, help="accepted for compatibility; nothing is randomized")
        add_output(p)

    add_common(sub.add_parser("analyze", help="run the candidate-level analysis"))
    p_branch = sub.add_parser("branch", help="verify a confirmed candidate by branch continuation")
    add_common(p_branch)
    p_branch.add_argument("--steps", type=int, help="number of amplitude steps (default 8)")
    p_branch.add_argument("--s0", type=float, help="smallest amplitude (default 1e-3)")
    p_branch.add_argument("--growth", type=float, help="amplitude growth factor (default 2.0)")
    p_branch.add_argument("--modes", type=int, help=f"initial Fourier truncation, 1 to {orbits_mod.MAX_MODES} (default 8)")
    add_output(sub.add_parser("presets", help="list preset systems and their parameters"))
    return parser


def _effective_config(args) -> RunConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = parse_config(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigParse(f"cannot read config file: {exc}") from exc
    elif args.preset is None:
        raise ConfigParse("either --config or --preset is required")
    else:
        config = RunConfig(preset=args.preset)
    updates = {
        name: getattr(args, flag)
        for _, _, name, flag, _, _ in _KEYS
        if flag is not None and getattr(args, flag, None) is not None
    }
    params = dict(config.params)
    for flag in ("omega", "c", "beta"):
        if getattr(args, flag) is not None:
            params[flag] = getattr(args, flag)
    if params != dict(config.params):
        updates["params"] = tuple(sorted(params.items()))
    return replace(config, **updates) if updates else config


def main(argv=None, stdout=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets(args.format or "text", args.output, stdout=stdout)
        config = _effective_config(args)
        if args.command == "analyze":
            return cmd_analyze(config, stdout=stdout)
        return cmd_branch(config, stdout=stdout)
    except HambifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
