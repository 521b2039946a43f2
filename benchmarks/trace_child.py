"""Run ``python -m cxtherm ARGS`` with the benchmark's tracer installed.

Usage: python trace_child.py SPANS_JSON ARGS...

The traced cold_query operations start this script instead of
``python -m cxtherm``; it writes the child's spans to SPANS_JSON when the CLI
returns and exits with the CLI's exit code.
"""

import runpy
import sys

import tracer

spans_path, cli_args = sys.argv[1], sys.argv[2:]
import cxtherm.cli  # noqa: E402,F401  (imported before wrapping, as python -m would)

t = tracer.Tracer()
t.install()
sys.argv = ["cxtherm", *cli_args]
code = 0
try:
    runpy.run_module("cxtherm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    t.uninstall()
    t.dump(spans_path)
sys.exit(code)
