"""Fresh-interpreter probe: set-up time and the first ``refine_equilibrium``.

Run as ``python3 perfbench/probe.py <workload> <seed> <smoke 0|1>``.  It
imports hambif, builds the workload's systems and prints ``ready``; the
parent times the interval from spawning it to that line.  It then times
one ``refine_equilibrium`` on the satellite ``omega=1, c=0.1``, the first
call of the process, and prints it as JSON.
"""

import sys
import time

import bootstrap

try:
    bootstrap.setup()
except bootstrap.MissingProgram as exc:
    sys.exit(f"error: {exc}")

import json  # noqa: E402

import numpy as np  # noqa: E402

import hambif  # noqa: E402
import workloads  # noqa: E402

bootstrap.check_import(hambif)
workloads.build(sys.argv[1], int(sys.argv[2]), smoke=sys.argv[3] == "1")
print("ready", flush=True)
system = hambif.model.preset("satellite", omega=1.0, c=0.1)
start = time.perf_counter()
hambif.model.refine_equilibrium(system, np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
print(json.dumps({"first_call_s": time.perf_counter() - start}), flush=True)
