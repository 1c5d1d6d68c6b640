"""Time-to-verdict benchmark for the flatpencil certifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, with a table

Run from the root of a checkout; the package is imported from ``src/``.

Workloads (see notes.json for the reasons, op counts and defect ledger):

* ``orbit-a4``: ``coxeter --type A --rank 4``, one op per pass; seed unused.
* ``certify-batch``: over 100 distinct ops across all ten subcommands, on
  inputs generated from the seed by ``inputs.py``; a fresh input set per pass.
* ``recurse-a3``: ``bracket recurse`` on the A3 orbit pencil, 10 steps.

Set-up (``setup_s``) is the median time to import ``flatpencil.cli`` in
fresh processes.  Then passes over the workload's op list run sequentially,
each in a fresh process (``worker.py``), until the next pass would overrun
``--seconds``; at least one pass runs.  Every op's exit code is checked
against the expected code of its construction.  With ``--trace 1`` one
untraced and one traced pass run on the same inputs; the per-layer metrics
come from the traced pass and its spans go to ``.perfbench_out/``.  Every
run also writes its op manifest there: each op's argv, family, expected
exit code with its reason, outcome and time.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every op that returned another
code than expected, raised, or missed the deadline, including the known
defects of notes.json; ``correct`` is false only for a failure not in it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
NOTES = HERE / "notes.json"

WORKLOADS = ("orbit-a4", "certify-batch", "recurse-a3")
# Per-op deadline of each workload: over 3x its slowest op at any seed tried.
DEADLINES_S = {"orbit-a4": 60.0, "certify-batch": inputs.DEADLINE_S, "recurse-a3": 30.0}
RECURSE_STEPS = 10
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run, passes included, ends within this
STARTED = time.monotonic()

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import flatpencil.cli\n"
    "print(time.perf_counter() - t, flatpencil.cli.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median import time of flatpencil.cli over fresh processes.

    One unrecorded import first writes the bytecode cache, which users pay
    once per install, not per run.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import flatpencil.cli: {proc.stderr.strip()[-300:]}")
        seconds, origin = proc.stdout.split()
        if Path(origin).resolve().parent != SRC / "flatpencil":
            raise RuntimeError(f"flatpencil.cli imported from {origin}, not from {SRC}")
        if i:
            samples.append(float(seconds))
    return statistics.median(samples)


def op_list(workload: str, seed: int, pass_no: int, workdir: Path) -> list[dict]:
    if workload == "orbit-a4":
        return [{
            "id": "coxeter-a4", "family": "orbit-a4",
            "argv": ["coxeter", "--type", "A", "--rank", "4"],
            "expected": 0, "reason": inputs.COXETER,
        }]
    if workload == "recurse-a3":
        return [{
            "id": "recurse-a3", "family": "recurse-a3",
            "argv": ["bracket", "recurse", str(inputs.SOURCES / "a3-pencil.json"), "--steps", str(RECURSE_STEPS)],
            "expected": 0, "reason": inputs.VALID,
        }]
    return inputs.build_batch(f"{seed}.{pass_no}", workdir)


def run_pass(ops: list[dict], deadline_s: float, workdir: Path, spans: Path | None) -> dict:
    """Run one pass in a fresh worker process and return its result."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan, result = workdir / "ops.json", workdir / "result.json"
    plan.write_text(json.dumps({"deadline_s": deadline_s, "ops": ops}), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan), str(result)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def subcommand(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] != "coxeter" else "coxeter"


def judge(ops: list[dict], records: list[dict], ledger: list[dict], failures: Counter) -> tuple[int, list[str]]:
    """Count undecided ops and each failure by (family, subcommand, outcome);
    list the failures the defect ledger does not name."""
    undecided = 0
    unexplained = []
    for op, rec in zip(ops, records):
        outcome = rec["outcome"]
        undecided += outcome == "deadline"
        if outcome == op["expected"]:
            continue
        failures[op["family"], subcommand(op["argv"]), op["expected"], outcome] += 1
        known = any(
            d["family"] == op["family"] and d["subcommand"] == subcommand(op["argv"]) and outcome in d["observed"]
            for d in ledger
        )
        if not known:
            unexplained.append(f"{op['id']}: expected {op['expected']}, got {outcome} {rec['detail'].strip()[-200:]}")
    return undecided, unexplained


def tail_percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method) when at
    least ten samples lie beyond it; otherwise the median, as fewer samples
    cannot place a tail percentile."""
    if len(values) * (100 - q) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(args) -> dict:
    ledger = json.loads(NOTES.read_text(encoding="utf-8"))["known_defects"]
    work = WORK / f"{args.workload}-{os.getpid()}"
    deadline_s = DEADLINES_S[args.workload]
    try:
        setup_s = measure_setup()
        started = time.perf_counter()
        passes: list[tuple[list[dict], dict]] = []
        if args.trace:
            ops = op_list(args.workload, args.seed, 0, work / "inputs")
            plain = run_pass(ops, deadline_s, work / "plain", None)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            traced = run_pass(ops, deadline_s, work / "traced", spans)
            passes = [(ops, plain), (ops, traced)]
        else:
            while not passes or time.perf_counter() - started + passes[-1][1]["wall_s"] <= args.seconds:
                pass_dir = work / f"pass{len(passes)}"
                ops = op_list(args.workload, args.seed, len(passes), pass_dir)
                passes.append((ops, run_pass(ops, deadline_s, pass_dir, None)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    write_manifest(args, passes)
    attempted = undecided = 0
    unexplained: list[str] = []
    failures: Counter = Counter()
    times = []
    for ops, result in passes:
        u, bad = judge(ops, result["ops"], ledger, failures)
        attempted += len(ops)
        undecided += u
        unexplained += bad
        times += [rec["time_s"] for rec in result["ops"]]
    failed = sum(failures.values())
    summary = {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unexplained": unexplained,
        "op_fail_ratio": failed / attempted,
        "passes": len(passes),
    }
    if args.trace:
        plain, traced = passes[0][1], passes[1][1]
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        summary["spans"] = str(spans.relative_to(ROOT))
        summary["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit, _b in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for _o, r in passes),
            "op_p50_s": statistics.median(times),
            "op_p90_s": tail_percentile(times, 90),
            "decided_ratio": (attempted - undecided) / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _o, r in passes),
        }
        summary["op_samples"] = len(times)
        summary["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return summary


def write_manifest(args, passes: list[tuple[list[dict], dict]]) -> None:
    """Every op of every pass, with its expected code and reason, outcome and
    time.  The certify-batch inputs themselves are deleted after the run;
    ``inputs.build_batch(f"{seed}.{pass}", dir)`` writes them again."""
    OUT.mkdir(parents=True, exist_ok=True)
    record = [
        [{**op, "outcome": rec["outcome"], "time_s": rec["time_s"]} for op, rec in zip(ops, result["ops"])]
        for ops, result in passes
    ]
    path = OUT / f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"passes": record}, indent=1) + "\n", encoding="utf-8")


def print_report(workload: str, summary: dict) -> None:
    print(f"== {workload}: {summary['passes']} pass(es), {summary['attempted']} ops, "
          f"{summary['failed']} failed, correct={summary['correct']}; {environment()}")
    for (family, cmd, expected, outcome), count in sorted(summary["failures"].items(), key=str):
        print(f"   failed: {count} x {family} '{cmd}': expected {expected}, got {outcome}")
    for line in summary["unexplained"]:
        print(f"   unexplained failure: {line}")
    print(f"   {'op_fail_ratio':42s} {summary['op_fail_ratio']:12.6g} ratio")
    if "op_samples" in summary:
        print(f"   {'op samples':42s} {summary['op_samples']:12d} count")
    if "spans" in summary:
        print(f"   {'span file':42s} {summary['spans']}")
    for name, m in summary["metrics"].items():
        print(f"   {name:42s} {m['value']:12.6g} {m['unit']}")


def environment() -> str:
    cpu = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"Python {sys.version.split()[0]}, {cpu}, nproc {os.cpu_count()}"


def run_all(args) -> int:
    """Each workload in its own process, one after another, with a table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload} failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatpencil" / "cli.py").is_file():
        print(f"error: no flatpencil sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        summary = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, summary)
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
