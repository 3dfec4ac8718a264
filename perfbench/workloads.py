"""The benchmark's workloads: inputs made from a seed, and how each request runs.

A workload is a fixed list of requests.  One pass runs every request once,
in order; a run repeats whole passes.  A request is what a user waits for:

* ``analysis``: ``refine_equilibrium`` then ``analyze`` on one system;
* ``branch``: the same, then ``continue_branch`` for one candidate;
* ``cli``: one ``python -m hambif.cli`` call in a fresh interpreter.

Operations, the unit that ``attempted`` and ``failed`` count, are finer:
each analysis, each requested orbit step and each CLI call is one.

The seed draws the satellite ``(omega, c)`` pairs with their refinement
guesses, the spring-chain frequencies and guesses, and
``AnalyzeOptions.seed``.  The program receives only the generated systems.
The draws are narrow on purpose: a run must cost about the same under every
seed, so that runs with different seeds can be compared.  The requests on
the fixed satellite ``omega=1, c=0.1`` start from fixed guesses, so that
which of its known wrong answers appear does not depend on the seed.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hambif
from bootstrap import ROOT, child_env

HERE = Path(__file__).resolve().parent

NAMES = ("analysis-sweep", "branch-satellite", "branch-chain", "cli-cold")

POLY_MINIMUM = "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; 0.5 0 0 0 2 ; 0.25 0 4 0 0"
POLY_REGULAR_VALUE = "0.5 2 0 0 0 ; 0.5 0 0 2 0 ; -0.5 0 0 0 2 ; 0.25 0 4 0 0"

# The randomised regular-value path costs 40-120 ms depending on its seed,
# so the degenerate systems run under this fixed ladder of analysis seeds.
# Drawing them from the workload seed would make runs under different
# seeds measure different work.
DEGENERATE_ANALYSIS_SEEDS = (0, 1, 2, 3)

# Frequencies well apart and with every ratio below 2, so that the jitter
# keeps each chain nonresonant.  The jitter is 0.2%: at 1% the Newton
# iteration counts, and with them the branch cost, changed with the seed.
CHAIN_BASE = {
    2: (1.0, 1.45),
    4: (1.0, 1.23, 1.47, 1.71),
    8: tuple(1.0 + 0.12 * i for i in range(8)),
}

# Wrong answers that the program gives at the commit that defined this
# benchmark.  They are counted as failed operations like any other; a run
# is still ``correct`` when every failure it sees is listed here, and not
# when any other failure appears.
KNOWN_DEFECTS = {
    ("satellite-gradient-only", "candidate_count"): (
        "finite-difference Hessian splits the group-orbit nilpotent block "
        "into a spurious third candidate"
    ),
    ("satellite-energy-only", "candidate_count"): (
        "finite-difference Hessian splits the group-orbit nilpotent block "
        "into a spurious third candidate"
    ),
    ("satellite-energy-only", "satellite_quintic"): (
        "central-difference gradient leaves the refined distance 1e-11 to 1e-10 "
        "off the root of the quintic"
    ),
    ("satellite-energy-only-stall", "raised"): (
        "with a central-difference gradient the refinement can stall at "
        "|grad H| ~ 2.5e-10, above its tolerance (2 of 300 random guesses)"
    ),
    **{
        (f"poly-regular-value@a{a}", "section_degree"): (
            "regular-value path at the default radius reports 0 or no value "
            "where the Brouwer degree is -1"
        )
        for a in DEGENERATE_ANALYSIS_SEEDS
    },
}


# The README's satellite guess, and a guess near it from which the
# energy-only refinement stalls above its tolerance.  The stall depends on
# every digit of the guess.
SATELLITE_GUESS = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)
SATELLITE_STALL_GUESS = (
    0.9943324924879209,
    -0.014568354543669056,
    0.0,
    0.01532655571890801,
    -1.0319217266759086,
    0.0,
)


@dataclass
class Request:
    """One unit of waiting for the user, with what its answer must satisfy."""

    name: str
    kind: str  # "analysis", "branch" or "cli"
    system: object = None
    guess: np.ndarray | None = None
    analysis_seed: int = 0
    j0: int = 1
    steps: int = 0
    s0: float = 0.0
    argv: tuple = ()
    expect: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return 1 + self.steps if self.kind == "branch" else 1


@dataclass
class Outcome:
    """What the program returned for one request, or why it did not."""

    error: str = ""
    eq: object = None
    candidates: list = field(default_factory=list)
    branch: object = None
    exit_code: int | None = None
    stdout_bytes: int = 0
    output: str = ""


# ---------------------------------------------------------------- systems


def satellite(omega: float, c: float, variant: str = "analytic"):
    """Satellite preset; the variants drop derivatives to force the FD paths."""
    system = hambif.model.preset("satellite", omega=omega, c=c)
    if variant == "gradient-only":
        return replace(system, hessian=None, name="satellite-gradient-only")
    if variant == "energy-only":
        return replace(system, gradient=None, hessian=None, name="satellite-energy-only")
    return system


def spring_chain(freqs, with_hessian: bool = True):
    """``U(q) = sum f_i^2 q_i^2 / 2 + sum (q_i - q_{i+1})^4 / 4`` as a first-order system."""
    f2 = np.asarray(freqs, dtype=float) ** 2
    n = f2.size
    idx = np.arange(n - 1)

    def potential(q):
        d = q[:-1] - q[1:]
        return 0.5 * float(f2 @ (q * q)) + 0.25 * float(np.sum(d**4))

    def gradient(q):
        d3 = (q[:-1] - q[1:]) ** 3
        g = f2 * q
        g[:-1] += d3
        g[1:] -= d3
        return g

    def hessian(q):
        w = 3.0 * (q[:-1] - q[1:]) ** 2
        h = np.diag(f2)
        h[idx, idx] += w
        h[idx + 1, idx + 1] += w
        h[idx, idx + 1] -= w
        h[idx + 1, idx] -= w
        return h

    return hambif.model.newtonian_to_hamiltonian(
        potential,
        n,
        gradient=gradient,
        hessian=hessian if with_hessian else None,
        name=f"chain-n{n}",
    )


def pendulum():
    """The pendulum of acceptance criterion 6(b)."""
    return hambif.model.newtonian_to_hamiltonian(
        potential=lambda q: 1.0 - np.cos(q[0]),
        n=1,
        gradient=lambda q: np.array([np.sin(q[0])]),
        hessian=lambda q: np.array([[np.cos(q[0])]]),
        name="pendulum",
    )


def inline_polynomial(monomials: str):
    """An inline polynomial system, built the way the CLI builds one."""
    config = hambif.cli.parse_config(f"[system]\nn = 2\nmonomials = {monomials}\n")
    return hambif.cli.build_system(config)


def chain_frequencies(rng: np.random.Generator, n: int) -> np.ndarray:
    """Jittered chain frequencies, redrawn until every level is nonresonant."""
    base = np.array(CHAIN_BASE[n])
    for _ in range(100):
        freqs = np.sort(base * (1.0 + 0.002 * rng.uniform(-1.0, 1.0, n)))
        ratios = freqs[None, :] / freqs[:, None]
        upper = ratios[np.triu_indices(n, 1)]
        if np.all(upper > 1.01) and np.all(np.abs(upper - np.round(upper))[upper >= 1.5] > 0.02):
            return freqs
    raise RuntimeError(f"no nonresonant chain frequencies for n={n}")


def satellite_guess(rng: np.random.Generator, omega: float) -> np.ndarray:
    guess = np.array([1.0, 0.0, 0.0, 0.0, -omega, 0.0])
    guess[[0, 1, 3, 4]] += 0.02 * rng.standard_normal(4)
    return guess


def satellite_expect(omega: float, c: float) -> dict:
    # The analytic Hessian serves the degree oracle for the FD variants too.
    return {"candidates": 2, "satellite": (omega, c), "hessian": satellite(omega, c).hessian}


# --------------------------------------------------------------- workloads


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The request list of one workload; ``smoke`` gives the smallest size."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng(seed)
    return {
        "analysis-sweep": _analysis_sweep,
        "branch-satellite": _branch_satellite,
        "branch-chain": _branch_chain,
        "cli-cold": _cli_cold,
    }[workload](rng, seed, smoke)


def _analysis_sweep(rng, seed, smoke):
    reqs = []
    for i in range(1 if smoke else 3):
        omega, c = float(rng.uniform(0.8, 1.25)), float(rng.uniform(0.05, 0.15))
        reqs.append(
            Request(
                f"satellite-draw-{i + 1}",
                "analysis",
                satellite(omega, c),
                satellite_guess(rng, omega),
                analysis_seed=seed,
                expect=satellite_expect(omega, c),
            )
        )
    fixed = [
        (f"satellite-{variant}", variant, SATELLITE_GUESS)
        for variant in ("analytic", "gradient-only", "energy-only")
    ]
    fixed.append(("satellite-energy-only-stall", "energy-only", SATELLITE_STALL_GUESS))
    for name, variant, guess in fixed:
        reqs.append(
            Request(
                name,
                "analysis",
                satellite(1.0, 0.1, variant),
                np.array(guess),
                analysis_seed=seed,
                expect=satellite_expect(1.0, 0.1),
            )
        )
    for n in (2,) if smoke else (2, 4, 8):
        freqs = chain_frequencies(rng, n)
        reqs.append(
            Request(
                f"chain-n{n}",
                "analysis",
                spring_chain(freqs),
                0.05 * rng.standard_normal(2 * n),
                analysis_seed=seed,
                expect={"candidates": n, "betas": freqs, "degree": 1},
            )
        )
    ladder = DEGENERATE_ANALYSIS_SEEDS[:1] if smoke else DEGENERATE_ANALYSIS_SEEDS
    for label, monomials in (("minimum", POLY_MINIMUM), ("regular-value", POLY_REGULAR_VALUE)):
        system, guess = inline_polynomial(monomials)
        for a in ladder:
            reqs.append(
                Request(
                    f"poly-{label}@a{a}",
                    "analysis",
                    system,
                    guess,
                    analysis_seed=a,
                    expect={"candidates": 1, "monomials": monomials},
                )
            )
    return reqs


def _branch_satellite(rng, seed, smoke):
    # The paper's application and the acceptance pendulum, from the guesses
    # the README and the acceptance suite use: the satellite's refined point
    # on its circle of equilibria, and with it the branch's Newton work,
    # depends on the guess.  Only AnalyzeOptions.seed follows the seed.
    sat = satellite(1.0, 0.1)
    steps = 2 if smoke else 8
    reqs = [
        Request(
            f"satellite-j{j0}",
            "branch",
            sat,
            np.array(SATELLITE_GUESS),
            analysis_seed=seed,
            j0=j0,
            steps=steps,
            s0=1e-3,
            expect=satellite_expect(1.0, 0.1),
        )
        for j0 in (1, 2)
    ]
    reqs.append(
        Request(
            "pendulum",
            "branch",
            pendulum(),
            np.array([0.1, 0.0]),
            analysis_seed=seed,
            steps=2 if smoke else 5,
            s0=0.1,
            expect={"candidates": 1, "degree": 1, "pendulum": True},
        )
    )
    return reqs


def _branch_chain(rng, seed, smoke):
    specs = (
        [(2, True, 3, 1e-3), (2, False, 3, 0.1)]
        if smoke
        else [(8, True, 8, 1e-3), (4, False, 6, 0.1)]
    )
    reqs = []
    for n, with_hessian, steps, s0 in specs:
        freqs = chain_frequencies(rng, n)
        reqs.append(
            Request(
                f"chain-n{n}" + ("" if with_hessian else "-gradient-only"),
                "branch",
                spring_chain(freqs, with_hessian),
                0.05 * rng.standard_normal(2 * n),
                analysis_seed=seed,
                steps=steps,
                s0=s0,
                expect={"candidates": n, "betas": freqs, "degree": 1},
            )
        )
    return reqs


def _cli_cold(rng, seed, smoke):
    # The README's two commands.  The satellite is built here as the CLI
    # builds it, to check the CLI's answers against.
    sat, _ = hambif.cli.build_system(hambif.cli.RunConfig(preset="satellite", params=(("c", 0.1), ("omega", 1.0))))
    common = ("--preset", "satellite", "--omega", "1", "--c", "0.1", "--seed", str(seed))
    machine = ("--format", "json-lines", "--output", "{out}")
    steps = 3 if smoke else 8  # the CLI calls a branch of fewer than 3 orbits unhealthy
    return [
        Request("cli-analyze", "cli", sat, argv=("analyze",) + common + machine, expect={"candidates": 2}),
        Request(
            "cli-branch",
            "cli",
            sat,
            argv=("branch",) + common + ("--steps", str(steps), "--s0", "1e-3") + machine,
            expect={"candidates": 2, "orbits": steps, "satellite": (1.0, 0.1)},
        ),
    ]


# ---------------------------------------------------------------- running


def run_inprocess(req: Request, system) -> Outcome:
    """Refine, analyze and (for a branch) continue; never raises."""
    out = Outcome()
    try:
        out.eq = hambif.model.refine_equilibrium(system, req.guess)
        options = hambif.analysis.AnalyzeOptions(seed=req.analysis_seed)
        out.candidates = hambif.analysis.analyze(system, out.eq, options)
        if req.kind == "branch":
            chosen = [c for c in out.candidates if c.j0 == req.j0]
            if not chosen:
                raise LookupError(f"no candidate j0={req.j0}")
            out.branch = hambif.orbits.continue_branch(
                system, out.eq, chosen[0], steps=req.steps, s0=req.s0, growth=2.0
            )
    except Exception as exc:  # a request boundary: record and go on
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def run_cli(req: Request, workdir: Path, ledger: Path | None = None) -> tuple:
    """One CLI call in a fresh interpreter; returns (wall seconds, outcome).

    With ``ledger`` the call runs under the span tracer and writes its
    ledger there.
    """
    out_path = workdir / f"{req.name}.jsonl"
    for stale in (out_path, ledger):
        if stale is not None and stale.exists():
            stale.unlink()
    argv = [a.replace("{out}", str(out_path)) for a in req.argv]
    if ledger is None:
        cmd = [sys.executable, "-m", "hambif.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(ledger), *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=150)
    wall = time.perf_counter() - start
    out = Outcome(exit_code=proc.returncode, stdout_bytes=len(proc.stdout))
    if out_path.exists():
        out.output = out_path.read_text(encoding="utf-8")
    if proc.returncode != 0:
        out.error = f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"
    return wall, out
