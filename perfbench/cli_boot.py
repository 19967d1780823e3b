"""Run one fidest CLI command with the layer wrappers installed.

    python perfbench/cli_boot.py SPANS_OUT OP_ID -- ARGV...

Used by the traced run of the ``cli`` workload in place of
``python -m fidest.cli ARGV...``; the spans go to SPANS_OUT when the command
ends.
"""

import json
import sys

import spans


def main() -> int:
    out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.current_op = int(op)
    import fidest.cli
    try:
        return fidest.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
