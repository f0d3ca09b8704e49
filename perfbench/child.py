"""Run one ssethom command line with the layer tracer installed.

    python3 perfbench/child.py SPANS_FILE ARG...

Behaves like ``ssethom ARG...`` (same stdout, same exit status) and writes
the spans and counters of the call to SPANS_FILE.  The package is imported
before the tracer is installed, so import time is not in the spans.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from ssethom import cli  # noqa: E402


def main() -> int:
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return cli.main(sys.argv[2:])
    except SystemExit as e:
        return e.code
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
