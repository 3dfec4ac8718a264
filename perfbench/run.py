"""hambif benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload analysis-sweep --seed 1 --seconds 15 --trace 0

Workloads: analysis-sweep, branch-satellite, branch-chain, cli-cold (see
``workloads.py`` and README.md).  The run

1. times fresh interpreters through ``import hambif`` and building the
   workload's systems (``setup_s``);
2. runs one untimed pass, then a fixed number of whole passes, sized so
   that they take about ``--seconds`` on the machine the benchmark was
   built on (``PASS_SECONDS``), checking every answer against the oracles
   in ``oracles.py``;
3. prints a human summary and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics and the tracing overhead.  A results file with the
environment, the fingerprint of the answers and the span ledger is written
to ``.bench_build/perfbench/``.  The program is imported from ``src/``;
without it the benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

try:
    WORK = bootstrap.setup()
except bootstrap.MissingProgram as exc:
    sys.exit(f"error: {exc}")

import numpy  # noqa: E402

import hambif  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

bootstrap.check_import(hambif)

SETUP_PROBES = 5
IMPORT_PROBES = 3
REFERENCE_SHARE = 0.1  # of each request's time spent timing the reference

# Nominal seconds of one untraced pass of each workload, measured on the
# machine the benchmark was built on (2 vCPUs under KVM, Python 3.11,
# numpy 2, OpenBLAS).  A run makes round(seconds / PASS_SECONDS) passes: a
# fixed count rather than a time limit, so that ``attempted`` and
# ``failed`` are the same on every run of the same code, whatever the
# machine's speed while it runs.
PASS_SECONDS = {
    "analysis-sweep": 0.5,
    "branch-satellite": 1.5,
    "branch-chain": 2.4,
    "cli-cold": 2.4,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    # One CPU for this process and every child it starts, so that the
    # reference and the requests run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment(load_at_start)
    requests = workloads.build(args.workload, args.seed, smoke=args.smoke)
    runner = Runner(requests)
    setup_probe(args)  # fills the bytecode and file caches; not counted
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    timing = runner.measure(passes, bool(args.trace), lambda: setup_probe(args), 1 if args.smoke else SETUP_PROBES)
    probes = timing.pop("probes")
    if args.workload == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        imports = [import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
        metrics = per_layer(runner, timing, probes, imports)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(runner, probes, rss_kb / 1024.0)
        wanted = spec["end_to_end"]
    for entry in wanted:
        if metrics[entry["name"]][1] != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']} measured in {metrics[entry['name']][1]}, declared {entry['unit']}")
    result = {
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]} for e in wanted},
    }
    aliases = raw_aliases(args.workload, runner)
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "passes": timing,
        "requests": {name: {"median_s": statistics.median(v), "latency_s": v} for name, v in runner.latency.items()},
        "reference_s": runner.reference,
        "aliases": aliases,
        "setup_probes": probes,
        "failures": [
            {"request": r, "check": c, "count": n, "detail": runner.details[(r, c)], "known": (r, c) in workloads.KNOWN_DEFECTS}
            for (r, c), n in sorted(runner.failure_counts.items())
        ],
        "fingerprint": runner.fingerprint,
        "fingerprint_digest": runner.digest(),
        "fingerprint_repeats": runner.fingerprint_repeats,
        "ledger": runner.tracer.to_json() if args.trace else None,
        "result": result,
    }
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print_summary(args, env, runner, timing, aliases, metrics, wanted, path)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ runs


class Runner:
    """Runs passes over the requests, times them and checks every answer."""

    def __init__(self, requests):
        self.requests = requests
        self.tracer = tracing.Tracer()
        self.latency = {req.name: [] for req in requests}
        self.reference = []
        self.reference_repeats = {req.name: 1 for req in requests}
        self.attempted = 0
        self.failed = 0
        self.failure_counts = {}
        self.details = {}
        self.orbits = 0
        self.traced_output_bytes = 0
        self.fingerprint = None
        self.fingerprint_repeats = True

    def measure(self, passes: int, trace: bool, probe, probes: int) -> dict:
        """Warm up, then ``passes`` whole passes, set-up probes in between.

        With ``trace`` the passes alternate untraced and traced, at least
        one of each; traced passes are checked but their times feed only
        the tracing overhead.  ``probes`` calls of ``probe`` are spread
        evenly over the passes, so that set-up is timed across the run's
        swings in machine speed.
        """
        warm = self.run_pass(record=False)
        ref = statistics.median(reference.kernel() for _ in range(5))
        for req in self.requests:
            if req.kind != "cli":
                self.reference_repeats[req.name] = max(1, round(REFERENCE_SHARE * warm[req.name] / ref))
        if trace:
            passes = 2 * max(1, passes // 2)
        plain, traced, samples = [], [], []
        for i in range(passes):
            if trace and i % 2:
                with tracing.installed(self.tracer, hambif):
                    traced.append(sum(self.run_pass(traced=True).values()))
            else:
                plain.append(sum(self.run_pass().values()))
            while len(samples) < probes and len(samples) * passes <= i * probes:
                samples.append(probe())
        while len(samples) < probes:
            samples.append(probe())
        timing = {"plain_s": plain, "traced_s": traced, "probes": samples}
        if trace:
            timing["overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        return timing

    def run_pass(self, record: bool = True, traced: bool = False) -> dict:
        """Run every request once; returns each request's seconds."""
        times = {}
        prints = {}
        for req in self.requests:
            if record and req.kind == "cli":
                self.reference.append(reference.cold())
            elif record:
                self.reference += [reference.kernel() for _ in range(self.reference_repeats[req.name])]
            if req.kind == "cli":
                ledger = WORK / f"{req.name}.ledger.json" if traced else None
                elapsed, out = workloads.run_cli(req, WORK, ledger)
                if ledger is not None and ledger.exists():
                    self.tracer.merge_json(json.loads(ledger.read_text(encoding="utf-8")))
                    self.traced_output_bytes += out.stdout_bytes + len(out.output.encode())
                fails = oracles.cli_failures(req, out)
            else:
                system = self.tracer.wrap_system(req.system) if traced else req.system
                start = time.perf_counter()
                out = workloads.run_inprocess(req, system)
                elapsed = time.perf_counter() - start
                fails = oracles.request_failures(req, out)
            times[req.name] = elapsed
            prints[req.name] = oracles.fingerprint(req, out)
            if record:
                self.latency[req.name].append(elapsed)
                if out.branch is not None:
                    self.orbits += len(out.branch.orbits)
            if record or traced:
                self.count(req, fails)
        if self.fingerprint is None:
            self.fingerprint = prints
        elif prints != self.fingerprint:
            self.fingerprint_repeats = False
        return times

    def count(self, req, fails) -> None:
        self.attempted += req.operations
        self.failed += len({op for op, _, _ in fails})
        for _, check, detail in fails:
            key = (req.name, check)
            self.failure_counts[key] = self.failure_counts.get(key, 0) + 1
            self.details.setdefault(key, detail)

    def correct(self) -> bool:
        """True when every failure seen is a known defect of the program."""
        return all(key in workloads.KNOWN_DEFECTS for key in self.failure_counts)

    def digest(self) -> str:
        text = json.dumps(self.fingerprint, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup_probe(args) -> dict:
    """Spawn-to-ready time of a fresh interpreter, and its first refine call."""
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "probe.py"), args.workload, str(args.seed), str(int(args.smoke))]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=bootstrap.ROOT, env=bootstrap.child_env(), stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return {"setup_s": setup_s, **json.loads(rest)}


def import_probe() -> dict:
    """Cumulative import times of hambif and of scipy from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hambif"],
        cwd=bootstrap.ROOT,
        env=bootstrap.child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    hambif_s = sum(cum for _, name, cum in rows if name == "hambif")
    scipy_rows = [(depth, cum) for depth, name, cum in rows if name == "scipy" or name.startswith("scipy.")]
    top = min((depth for depth, _ in scipy_rows), default=0)
    return {"hambif_s": hambif_s, "scipy_s": sum(cum for depth, cum in scipy_rows if depth == top)}


# --------------------------------------------------------------- metrics


def end_to_end(runner, probes, rss_mb) -> dict:
    """Request times in units of the reference kernel's time.

    A request's cost is its mean time over the run divided by the mean
    reference time; the reference samples are spread in proportion to
    request time, so both means weight the machine's speed alike.
    """
    ref = statistics.fmean(runner.reference)
    kinds = [statistics.fmean(v) / ref for v in runner.latency.values()]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "request_p50_ref": (statistics.median(kinds), "ref"),
        "slowest_request_ref": (max(kinds), "ref"),
        "pass_ref": (sum(kinds), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_pass(value, passes):
    share = value / passes
    return round(share) if abs(share - round(share)) < 1e-9 else share


def per_layer(runner, timing, probes, imports) -> dict:
    tracer, passes = runner.tracer, len(timing["traced_s"])

    def count(value):
        return _per_pass(value, passes), "count"

    def self_s(*names):
        return tracer.self_s(*names) / passes, "s"

    orbits = tracer.counts["orbits.orbits"] / passes
    gradient_calls = tracer.calls("evaluator.gradient") / passes
    metrics = {
        "evaluator.gradient.calls_per_orbit": (gradient_calls / orbits if orbits else 0.0, "calls/orbit"),
        "evaluator.self_s": self_s(*tracer.names("evaluator.")),
        "orbits.orbits": count(tracer.counts["orbits.orbits"]),
        "orbits.mode_doublings": count(tracer.counts["orbits.mode_doublings"]),
        "orbits.max_modes": (tracer.max_modes, "count"),
        "model.refine_equilibrium.first_call_s": (statistics.median(p["first_call_s"] for p in probes), "s"),
        "linalg.calls": count(tracer.calls(*tracer.names("linalg."))),
        "linalg.self_s": self_s(*tracer.names("linalg.")),
        "import.hambif_s": (statistics.median(i["hambif_s"] for i in imports), "s"),
        "import.scipy_s": (statistics.median(i["scipy_s"] for i in imports), "s"),
        "cli.output_bytes": (_per_pass(runner.traced_output_bytes, passes), "B"),
        "trace.overhead_frac": (timing["overhead_frac"], "frac"),
    }
    for span in (
        "evaluator.gradient",
        "evaluator.hessian",
        "evaluator.energy",
        "orbits.solve_orbit",
        "model.gradient_of",
        "model.hessian_of",
    ):
        metrics[f"{span}.calls"] = count(tracer.calls(span))
    for span in (
        "orbits.solve_orbit",
        "orbits.continue_branch",
        "orbits.residual_field",
        "orbits.kernel_direction",
        "model.hessian_of",
        "model.refine_equilibrium",
        "analysis.analyze",
        "analysis.spectral_report",
        "analysis.morse_jump",
        "degree.section_degree",
        "cli.main",
    ):
        metrics[f"{span}.self_s"] = self_s(span)
    for path in ("nondegenerate", "minimum", "regular-value"):
        metrics[f"degree.path.{path}"] = count(tracer.counts[f"degree.path.{path}"])
    return metrics


def raw_aliases(workload, runner) -> dict:
    """The per-workload metric names of the benchmark's design, for the summary."""
    every = [x for v in runner.latency.values() for x in v]
    busy = sum(every)
    aliases = {"failed_frac": runner.failed / runner.attempted if runner.attempted else 0.0}
    if not every:
        return aliases
    if workload == "analysis-sweep":
        aliases.update(
            analysis_p50_ms=1e3 * statistics.median(every),
            analysis_p90_ms=1e3 * statistics.quantiles(every, n=10)[-1] if len(every) > 1 else 1e3 * every[0],
            analyses_per_s=len(every) / busy,
        )
    elif workload.startswith("branch-"):
        aliases.update(branch_p50_s=statistics.median(every), orbits_per_s=runner.orbits / busy)
    elif workload == "cli-cold":
        aliases.update(
            cli_analyze_s=statistics.median(runner.latency["cli-analyze"]),
            cli_branch_s=statistics.median(runner.latency["cli-branch"]),
        )
    aliases["samples"] = len(every)
    return aliases


# ----------------------------------------------------------- environment


def environment(load_at_start) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads_set": bootstrap.BLAS_THREADS,
        "blas_threads_seen": blas_threads(),
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def print_summary(args, env, runner, timing, aliases, metrics, wanted, path) -> None:
    passes = len(timing["plain_s"]) + len(timing["traced_s"])
    print(
        f"hambif benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={passes} requests/pass={len(runner.requests)}"
    )
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, {env['blas']} with {env['blas_threads_seen']} thread(s), "
        f"load {env['loadavg_at_start'][0]:.2f}"
    )
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        print(f"  {entry['name']:<40} {value:.6g} {unit}")
    if runner.reference:
        print(f"  reference time: mean {1e3 * statistics.fmean(runner.reference):.3f} ms over {len(runner.reference)} samples")
    if args.trace:
        print(f"  tracing overhead: {timing['overhead_frac']:+.1%} per pass against untraced passes")
    else:
        for name, value in aliases.items():
            if name not in ("failed_frac", "samples"):
                print(f"  ({name} = {value:.6g}, n={aliases['samples']})")
    print(f"failed_frac = {aliases['failed_frac']:.4f} ({runner.failed}/{runner.attempted} operations)")
    for (req, check), count in sorted(runner.failure_counts.items()):
        tag = "known defect" if (req, check) in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failure [{tag}] {req} {check} x{count}: {runner.details[(req, check)]}")
    print(f"fingerprint {runner.digest()} (repeats across passes: {runner.fingerprint_repeats}); details in {path.relative_to(bootstrap.ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
