"""The benchmark's own fast self-test.

    python3 perfbench/selftest.py

Checks, at the smallest size of every workload:

* the last output line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and the metrics are exactly those that
  BENCHMARK.json declares for the mode, with the declared units;
* the deterministic counts of two traced runs on one seed are equal, and
  so are ``attempted`` and ``failed``, also under another seed;
* a planted wrong answer (a perturbed pendulum period, a truncated CLI
  output) is counted as failed and makes the run incorrect;
* the oracles reproduce known values.

It also prints the gradient-call count of the satellite j0 = 1 branch.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import run  # sets up the environment and imports hambif from src/

import hambif  # noqa: E402
import numpy as np  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bootstrap import ROOT  # noqa: E402

SEED = 7
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_benchmark(workload: str, trace: int, seed: int = SEED) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        check(False, f"{workload} trace={trace} exits 0 (got {proc.returncode}: {proc.stderr.strip()[-300:]})")
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_output_contract(spec: dict) -> None:
    for workload in workloads.NAMES:
        counts, tallies = [], []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            if not result:
                continue
            tallies.append((trace, result["attempted"], result["failed"]))
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{workload} trace={trace}: attempted >= 1")
            check(result["correct"] is True, f"{workload} trace={trace}: no failure outside the known defects")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            seen = {name: m["unit"] for name, m in result["metrics"].items()}
            check(seen == declared, f"{workload} trace={trace}: every {section} metric, with its unit")
            numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            check(numbers, f"{workload} trace={trace}: every value is a number")
            if trace:
                counts.append({n: m["value"] for n, m in result["metrics"].items() if m["unit"] == "count"})
        if len(counts) == 2:
            check(counts[0] == counts[1], f"{workload}: deterministic counts repeat exactly")
        if len(tallies) == 3:
            check(tallies[1] == tallies[2], f"{workload}: attempted and failed repeat exactly")
            other = run_benchmark(workload, 0, seed=SEED + 1)
            if other:
                same = (0, other["attempted"], other["failed"]) == tallies[0]
                check(same, f"{workload}: attempted and failed do not depend on the seed")


def check_planted_wrong_answers() -> None:
    requests = [r for r in workloads.build("branch-satellite", SEED, smoke=True) if r.name == "pendulum"]
    honest = run.Runner(requests)
    honest.run_pass()
    check(honest.failed == 0 and honest.correct(), "pendulum branch passes its oracles")

    real = workloads.run_inprocess

    def perturbed(req, system):
        out = real(req, system)
        orbit = out.branch.orbits[0]
        out.branch.orbits[0] = replace(orbit, lam=orbit.lam * (1.0 + 1e-3))
        return out

    workloads.run_inprocess = perturbed
    try:
        planted = run.Runner(requests)
        planted.run_pass()
    finally:
        workloads.run_inprocess = real
    check(planted.failed >= 1, f"perturbed pendulum period raises failed ({planted.failed}/{planted.attempted})")
    check(("pendulum", "pendulum_period") in planted.failure_counts, "perturbed period fails the elliptic-integral oracle")
    check(not planted.correct(), "an unexpected failure makes the run incorrect")

    cli_req = workloads.build("cli-cold", SEED, smoke=True)[1]
    truncated = workloads.Outcome(exit_code=0, output='{"index": 1, "amplitude": 0.001\n')
    check(bool(oracles.cli_failures(cli_req, truncated)), "json-lines that do not parse fail the CLI call")
    check(bool(oracles.cli_failures(cli_req, workloads.Outcome(exit_code=1, error="exit code 1"))), "a non-zero exit fails the CLI call")


def check_oracles() -> None:
    check(abs(oracles.elliptic_k(0.0) - np.pi / 2) < 1e-15, "K(0) = pi/2")
    check(abs(oracles.elliptic_k(0.5) - 1.8540746773013719) < 1e-14, "K(1/2) by AGM")
    check(oracles.separable_degree(workloads.POLY_MINIMUM, 4) == 1, "closed-form degree of the minimum system is +1")
    check(oracles.separable_degree(workloads.POLY_REGULAR_VALUE, 4) == -1, "closed-form degree of the regular-value system is -1")
    d = oracles.satellite_distance(1.0, 0.1)
    check(abs(d**5 - d**2 - 0.3) < 1e-12, "satellite quintic root")


def report_gradient_calls() -> None:
    req = workloads.build("branch-satellite", SEED)[0]
    eq = hambif.model.refine_equilibrium(req.system, req.guess)
    candidate = hambif.analysis.analyze(req.system, eq)[0]
    tracer = tracing.Tracer()
    hambif.orbits.continue_branch(tracer.wrap_system(req.system), eq, candidate, steps=req.steps, s0=req.s0)
    calls = tracer.calls("evaluator.gradient")
    print(f"info satellite j0=1 continue_branch gradient calls: {calls} (44616 when the benchmark was defined)")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_oracles()
    check_planted_wrong_answers()
    report_gradient_calls()
    check_output_contract(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
