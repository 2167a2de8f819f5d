"""The run stops every process it started: nothing of its session outlives it."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Starts what a churn-tpce run starts: a resource tracker (shared memory) and
# worker processes, plus a plain child; then stops them the way run.py does.
SCRIPT = textwrap.dedent("""
    import multiprocessing, subprocess, sys
    from multiprocessing import shared_memory
    from perfbench.run import child_pids, stop_children

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    worker = multiprocessing.get_context("fork").Process(target=__import__("time").sleep,
                                                         args=(30,), daemon=True)
    worker.start()
    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"],
                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert len(child_pids()) == 3, child_pids()
    stop_children()
    print(child_pids())
""")


def session_members(session: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def test_stop_children_leaves_no_process_behind():
    process = subprocess.Popen(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = process.communicate(timeout=60)
        left = session_members(process.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)  # what a failed run left
    assert process.returncode == 0, err
    assert out.strip() == "[]"
    assert left == []
