"""Run one pass of a workload's op list in this (fresh) process.

    python3 perfbench/worker.py OPS_JSON RESULT_JSON [--trace SPANS_JSON]

Each op is one call to ``flatpencil.cli.main(argv)``, run sequentially, with
its printed output discarded.  An op that passes the per-op deadline is cut
by SIGALRM.  The result file holds, per op, its wall time, its outcome (an
exit code, "deadline" or "exception") and the peak RSS so far; and the pass
wall time, the import time of ``flatpencil.cli`` and this process's peak RSS.
With ``--trace`` it also holds the per-layer totals, and the spans go to
SPANS_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program catches it."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def run_op(cli, argv: list[str], deadline_s: float) -> tuple[float, object, str]:
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    started = time.perf_counter()
    detail = ""
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = cli.main(argv)
    except DeadlineExceeded:
        outcome = "deadline"
    except SystemExit as exc:
        outcome = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        outcome = "exception"
        detail = traceback.format_exc(limit=3)
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    if not detail and outcome not in (0, "deadline"):
        detail = sink.getvalue()[-300:]
    return elapsed, outcome, detail


def main(argv: list[str]) -> int:
    ops_path, result_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[3]) if len(argv) > 3 and argv[2] == "--trace" else None
    plan = json.loads(ops_path.read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    from flatpencil import cli

    import_s = time.perf_counter() - started
    if Path(cli.__file__).resolve().parent != SRC / "flatpencil":
        print(f"flatpencil imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    started = time.perf_counter()
    for index, op in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = index
        elapsed, outcome, detail = run_op(cli, op["argv"], plan["deadline_s"])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records.append({"id": op["id"], "time_s": elapsed, "outcome": outcome, "rss_mb": rss_mb, "detail": detail})
    wall_s = time.perf_counter() - started

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path, [op["id"] for op in plan["ops"]])
    result_path.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
