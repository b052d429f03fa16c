"""Run one bakerlattice CLI command with spans recorded.

Usage: python3 perfbench/traced_cli.py TRACE_FILE COMMAND [CLI ARGS...]

Behaves like ``python3 -m bakerlattice COMMAND ...`` (same exit code, same
output, same uncaught exceptions) and writes the spans to TRACE_FILE as JSON
lines when the command ends.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer(trace_file.stem)
    tracer.install()
    from bakerlattice import cli

    try:
        return cli.main(argv)
    finally:
        tracer.write(trace_file)


if __name__ == "__main__":
    sys.exit(main())
