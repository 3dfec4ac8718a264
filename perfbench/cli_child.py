"""Run one hambif CLI command under the span tracer.

``python3 perfbench/cli_child.py <ledger.json> <cli arguments...>`` behaves
like ``python -m hambif.cli <cli arguments...>``, but wraps the package's
layers and the evaluators of the system the CLI builds, and writes the
span totals to ``<ledger.json>``.
"""

import sys

import bootstrap

try:
    bootstrap.setup()
except bootstrap.MissingProgram as exc:
    sys.exit(f"error: {exc}")

import json  # noqa: E402

import hambif  # noqa: E402
import tracing  # noqa: E402

bootstrap.check_import(hambif)
ledger, argv = sys.argv[1], sys.argv[2:]
tracer = tracing.Tracer()
build_system = hambif.cli.build_system


def traced_build_system(config):
    system, guess = build_system(config)
    return tracer.wrap_system(system), guess


with tracing.installed(tracer, hambif):
    hambif.cli.build_system = traced_build_system
    try:
        code = hambif.cli.main(argv)
    finally:
        hambif.cli.build_system = build_system
with open(ledger, "w", encoding="utf-8") as handle:
    json.dump(tracer.to_json(), handle)
sys.exit(code)
