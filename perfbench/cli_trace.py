"""Run one triphot CLI command with spans around the package's functions.

Usage (PYTHONPATH must name the package's src directory):

    python3 perfbench/cli_trace.py SPANS.npz ARG...

Times `import triphot.cli` as a span, wraps the package's public functions
(spans.TARGETS), calls `triphot.cli.main([ARG...])` and saves the spans to
SPANS.npz.  Output and exit code match `python -m triphot.cli ARG...`: an
uncaught exception prints its traceback and exits 1.
"""

import sys
import time
import traceback

t0 = time.perf_counter()
import triphot.cli  # noqa: E402  (timed above)

t1 = time.perf_counter()

from spans import Tracer  # noqa: E402  (after the timed import: it loads numpy)


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op_id = 0
    tracer.record("import.triphot.cli", t0, t1)
    tracer.install()
    try:
        return triphot.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        tracer.save(path)


if __name__ == "__main__":
    sys.exit(main())
