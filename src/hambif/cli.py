"""Command-line front end: analyze, branch, presets.

This module parses, dispatches and renders; ``model`` builds every system,
the inline polynomial of a configuration included, and states every
preset: this module reads a preset's parameter flags, sample configuration
and default starting point from ``model``'s registry.  A flag is read only
when written out in full: argparse's prefix matching is off.

Each value of a system is checked once, by the ``model`` constructor that
builds with it (``linalg._array`` for the guess), and ``build_system``
reports its ``ValueError`` as ``bad system: ...``, where ``generators[k]``
is config key ``generator<k+1>``.  ``RunConfig`` checks only what
the command line alone states: the rules between keys, the monomial
exponent grammar, the ladder, the ``n``/``j0`` kinds and the output format.

Configuration is a flat key = value file with sections ([system],
[analysis], [branch], [output], [run]).  Each run setting is declared once,
on its ``RunConfig`` field: its ``[section] key``, how its text is parsed
and shown, and its command-line flag (which overrides the file) with the
flag's help.  ``parse_config``, ``RunConfig.to_ini`` and the argument
parser are all read from those fields.

Each command builds its records once, each from the one ordered column ->
value table of its kind (candidate, orbit, coefficients, coefficient row).
The text report, json-lines (one record per line) and csv (header row +
the table's column order) are all rendered from those records, and
``_emit`` alone decides where they are written.  Identical
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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analysis as analysis_mod
from . import model as model_mod
from . import orbits as orbits_mod
from .errors import ConfigParse, HambifError
from .linalg import _array, _integer

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


def _setting(section: str, key: str, parse=str, show=str, flag=None, help=None, default=None):
    """A ``RunConfig`` field declared once: its configuration key ``[section] key`` and its command-line flag.

    ``parse`` reads the key's text, raising ``ValueError`` on a malformed
    value, and is the flag's type; ``show`` writes the value back.  ``flag``
    is the flag's name, or ``None`` for a key without one, and ``help`` its
    help text, where ``{default}`` stands for the field's default.
    """
    help = help and help.format(default=default)
    return field(default=default, metadata={"setting": (section, key, parse, show, flag, help)})


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; exactly one of preset / monomials is set."""

    preset: str | None = _setting("system", "preset", flag="preset", help="preset name (see the presets command)")
    params: tuple = ()  # sorted (name, value) pairs; value float or tuple of floats
    n: int | None = _setting("system", "n", int)
    # ((coeff, (e_1, ..., e_2N)), ...)
    monomials: tuple = _setting("system", "monomials", _monomials, _show_monomials, default=())
    generators: tuple = ()  # tuples of row tuples
    guess: tuple | None = _setting("system", "guess", _floats, _show_floats)
    j0: int | None = _setting("analysis", "j0", int, flag="j0", help="restrict to one candidate index")
    steps: int = _setting("branch", "steps", int, str, "steps", "number of amplitude steps (default {default})", 8)
    s0: float = _setting("branch", "s0", float, _fmt, "s0", "smallest amplitude (default {default})", 1e-3)
    growth: float = _setting("branch", "growth", float, _fmt, "growth", "amplitude growth factor (default {default})", 2.0)
    modes: int = _setting(
        "branch", "modes", int, str, "modes", f"initial Fourier truncation, 1 to {orbits_mod.MAX_MODES} (default {{default}})", 8
    )
    fmt: str = _setting("output", "format", flag="format", help="output format", default="text")
    output: str | None = _setting("output", "path", flag="output", help="write machine output to this path")
    seed: int = _setting("run", "seed", int, flag="seed", help="accepted for compatibility; nothing is randomized", default=0)

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
        try:  # the package's argument kinds, and continue_branch's contract
            for key in ("n", "j0"):
                if getattr(self, key) is not None:
                    _integer(key, getattr(self, key))
            orbits_mod._check_ladder(self.steps, self.s0, self.growth, self.modes)
        except ValueError as exc:
            raise ConfigParse(str(exc)) from exc
        for _, exps in self.monomials:
            if len(exps) != 2 * self.n or any(e < 0 for e in exps):
                raise ConfigParse(f"a monomial needs {2 * self.n} non-negative exponents, got {list(exps)}")
        if self.fmt not in FORMATS:
            raise ConfigParse(f"unknown output format {self.fmt!r}")

    def to_ini(self) -> str:
        """Deterministic flat-text serialization; parse_config inverts it."""
        sections: dict = {}
        for name, section, key, _, show, *_ in _KEYS:
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


# Every fixed configuration key, in RunConfig's order: (field, section, key,
# parse, show, flag, help).  The other [system] keys are generator1,
# generator2, ... and preset parameters; parse_config rejects any other key or
# section.
_KEYS = tuple((f.name, *f.metadata["setting"]) for f in fields(RunConfig) if f.metadata)

_SECTION_KEYS = {section: {key for _, s, key, *_ in _KEYS if s == section} for _, section, *_ in _KEYS}

# the preset-parameter flags and their help, in the registry's order
_PARAM_FLAGS = {flag: text for entry in model_mod.preset_info().values() for flag, text in entry["flags"].items()}


def _parse_value(section: str, key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigParse(f"[{section}] {key} = {text!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value configuration format; an unknown section or key is an error.

    The ``k`` generator keys are ``generator1`` to ``generator<k>``, taken in
    that order; any other ``generator`` key (``generator0``, ``generatorx``,
    or ``generator3`` beside ``generator1`` alone) is an error naming it.
    """
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
        for name, section, key, parse, *_ in _KEYS
        if parser.has_option(section, key)
    }
    if parser.has_section("system"):
        free = sorted((k, v) for k, v in parser.items("system") if k not in _SECTION_KEYS["system"])
        gens = [k for k, _ in free if k.startswith("generator")]
        keys = [f"generator{i}" for i in range(1, len(gens) + 1)]
        for k in gens:
            if k not in keys:
                raise ConfigParse(f"[system] {k}: the generator keys are generator1 to generator{len(gens)}, without a gap")
        kw["generators"] = tuple(_parse_value("system", k, _matrix, parser.get("system", k)) for k in keys)
        kw["params"] = tuple((k, _parse_value("system", k, _param, v)) for k, v in free if k not in gens)
    return RunConfig(**kw)


def build_system(config: RunConfig) -> tuple:
    """System plus the equilibrium guess for it: the configured one, else the origin or the preset's ``preset_guess``.

    The model rejects bad parameters, coefficients and generators, a list
    where a number belongs among them, and ``linalg._array`` a guess that is
    not finite or not of the system's dimension, with ``ValueError``: a
    configuration error here, ``bad system: ...``.
    """
    params = {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.params}
    try:
        if config.preset is None:
            system = model_mod._polynomial_system(config.n, config.monomials, config.generators)
            guess = np.zeros(system.dim)
        else:
            system, guess = model_mod._preset(config.preset, params)
        if config.guess is not None:
            guess = _array("guess", config.guess, (system.dim,))
    except ValueError as exc:
        raise ConfigParse(f"bad system: {exc}") from exc
    return system, guess


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
        report = analysis_mod.spectral_report(system, eq)  # the one analyze kept on eq
        lines.append(
            f"hessian: m+ = {report.m_plus}, m- = {report.m_minus}, kernel dim = {report.kernel_dim}, "
            f"orbit nondegenerate = {'yes' if report.kernel_dim == eq.orbit_dim else 'no'}"
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
    # the first confirmed candidate; analyze kept only the configured j0's, if one is set
    picks = [c for c in candidates if c.confirmed]
    if not picks:
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
        for rec in (coeff_records if config.fmt == "csv" and config.output else ())  # only the csv side table of --output reads them
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


def cmd_presets(fmt: str = RunConfig.fmt, output: str | None = None, stdout=None) -> int:
    records = []
    for name, entry in sorted(model_mod.preset_info().items()):
        # the sample sets each flagged parameter at its default and each required one at its example
        values = {**entry["parameters"], **entry["examples"]}
        keys = sorted({*entry["flags"], *entry["examples"]})
        sample = RunConfig(preset=name, params=tuple((key, values[key]) for key in keys))
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="run the candidate-level analysis", allow_abbrev=False)
    branch = sub.add_parser("branch", help="verify a confirmed candidate by branch continuation", allow_abbrev=False)
    presets = sub.add_parser("presets", help="list preset systems and their parameters", allow_abbrev=False)
    for p in (analyze, branch):
        p.add_argument("--config", help="configuration file (flat key = value with sections)")
        for flag, text in _PARAM_FLAGS.items():
            p.add_argument(f"--{flag}", type=float, help=text)
    # an [output] flag serves every command, a [branch] flag branch alone, any other analyze and branch
    commands = {"output": (analyze, branch, presets), "branch": (branch,)}
    for _, section, _, parse, _, flag, text in _KEYS:
        for p in commands.get(section, (analyze, branch)) if flag else ():
            p.add_argument(f"--{flag}", type=parse, choices=FORMATS if flag == "format" else None, help=text)
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
    updates = {name: getattr(args, flag) for name, *_, flag, _ in _KEYS if flag and getattr(args, flag, None) is not None}
    params = dict(config.params)
    params.update((flag, getattr(args, flag)) for flag in _PARAM_FLAGS if getattr(args, flag) is not None)
    if params != dict(config.params):
        updates["params"] = tuple(sorted(params.items()))
    return replace(config, **updates) if updates else config


def main(argv=None, stdout=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets(args.format or RunConfig.fmt, args.output, stdout=stdout)
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
