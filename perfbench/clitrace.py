"""Run one ``ncfuncalc.cli`` command with the layer tracer installed.

Usage: python3 clitrace.py TRACE_OUT VERB [ARGS...]

Behaves like ``python -m ncfuncalc.cli VERB [ARGS...]`` (same stdout, stderr
and exit code) and additionally writes the tracer state to TRACE_OUT.
"""

import json
import sys

import ncfuncalc.cli

from layers import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    code = ncfuncalc.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
    sys.exit(code)
