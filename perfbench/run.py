"""Benchmark entry point: one workload, one seed, one measured run.

Run from the repository root::

    python3 perfbench/run.py --workload fresh-tpch --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` serves the same
workload twice, untraced then with every layer entry point rebound to a
span-recording wrapper, and prints the per-layer metrics.  ``--seconds`` sets
the amount of work, not a time limit (see ``workloads``).  End-to-end times
are given at reference machine speed: each is scaled by the speed witness
sampled next to it; the unscaled ones are in the diagnostics.  The last line of
stdout is the JSON result; diagnostics (CPU drift witness, unscaled times,
answer digest, error counts, the layer table) come before it and go to
``.perfbench-out/<workload>-seed<n>-trace<t>/`` together with the span dump.

The interpreter re-executes itself once so that ``PYTHONHASHSEED`` is pinned,
and the columnar backend is pinned to pure python.  Every process the run
starts (churn-tpce's pool workers and the resource tracker of its shared
memory) is stopped and waited for before the result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds a leftover child gets to end after SIGTERM before it is killed.
STOP_GRACE = 5.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The pins are arguments so that BENCHMARK.json's command states them.
    parser.add_argument("--backend", default="python", choices=("python",))
    parser.add_argument("--hash-seed", default="0", choices=("0",))
    return parser.parse_args(argv)


def pin_interpreter(args: argparse.Namespace) -> None:
    """Pin the backend (``repro`` reads ``REPRO_BACKEND`` once, on first use) and
    re-exec under the pinned hash seed (same process, no child)."""
    os.environ["REPRO_BACKEND"] = args.backend
    if os.environ.get("PYTHONHASHSEED") != args.hash_seed:
        os.environ["PYTHONHASHSEED"] = args.hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])


def child_pids() -> list[int]:
    """Pids of this process's children, zombies included (from ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while listed
        if int(fields[1]) == os.getpid():
            children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``AcquisitionService.close`` joins the process executor's workers, but
    ``multiprocessing.shared_memory`` starts a resource tracker that is meant
    to outlive its parent and would still be running after the run exits."""
    from multiprocessing import active_children, resource_tracker

    for child in active_children():
        child.terminate()
        child.join(STOP_GRACE)
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()  # closes its pipe, so it ends, then waits for it
    pending = child_pids()
    for pid in pending:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + STOP_GRACE
    while pending:
        for pid in list(pending):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    pending.remove(pid)
            except ChildProcessError:
                pending.remove(pid)  # reaped elsewhere
        if pending and time.monotonic() > deadline:
            for pid in pending:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_interpreter(args)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import measure
    from perfbench.workloads import SCENARIOS
    from repro.relational.backend import active_backend

    if args.workload not in SCENARIOS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(SCENARIOS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(out_dir / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir

    scenario = SCENARIOS[args.workload]
    if scenario.one_cpu:
        # Client and server threads share one GIL; left free they bounce between
        # CPUs and the run's speed flips between two modes.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.time()
    try:
        if args.trace:
            report = measure.traced_run(scenario, args.seed, args.seconds, out_dir)
        else:
            report = measure.timed_run(scenario, args.seed, args.seconds, out_dir)
    finally:
        stop_children()
    report.diagnostics.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        backend=active_backend(),
        pythonhashseed=os.environ.get("PYTHONHASHSEED"),
        nproc=os.cpu_count(),
        cpus=sorted(os.sched_getaffinity(0)),
        python=platform.python_version(),
        run_seconds=round(time.time() - started, 3),
    )
    if report.table:
        print(report.table)
    print("diagnostics " + json.dumps(report.diagnostics, sort_keys=True))
    result = report.result()
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "diagnostics": report.diagnostics}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
