"""Run ``avg`` under the tracer: ``python3 perfbench/trace_cli.py ARGS...``.

Behaves like ``python -m avgalg.cli ARGS...`` (same stdout and exit code) and
then writes the tracer's counts as one JSON line, the last line of stderr.
PYTHONPATH must name the checkout's src/.
"""

import json
import sys

import avgalg.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    with tracer.installed():
        code = avgalg.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.snapshot()), file=sys.stderr)
    sys.exit(code)
