"""``scripts/replay_evaluations.py`` on tiny benchmark scenarios.

A capture records a phase's evaluations in process, and a replay of it
serves the recorded results bit for bit, on tables that arrive without
their caches.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "replay_evaluations.py"
_spec = importlib.util.spec_from_file_location("replay_evaluations", SCRIPT)
replay_evaluations = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_evaluations)

from perfbench.workloads import SCENARIOS  # noqa: E402  (the script puts it on sys.path)
from repro.storage import serialize  # noqa: E402

TINY = {
    "fresh-tpch": dict(scale=0.2, iterations=20),
    "churn-tpce": dict(scale=0.15, iterations=20, pool_pairs_per_query=1, reads_per_write=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_replay_serves_the_captured_results(name, tmp_path, capsys):
    scenario = replace(SCENARIOS[name], min_reads=6, check_every=1, **TINY[name])
    capture = tmp_path / f"{name}.replay"
    count = replay_evaluations.capture(scenario, 3, 0.0, capture)
    assert count > 0
    summary = replay_evaluations.replay(capture, passes=1)
    assert summary["evaluations"] == count
    assert summary["digests"] == [summary["recorded_digest"]]
    assert summary["masks_per_pass"][0] > 0
    assert replay_evaluations.main(["replay", str(capture), "--passes", "1"]) == 0
    assert "OK" in capsys.readouterr().out


def test_a_replay_refuses_a_file_it_did_not_write(tmp_path):
    stranger = tmp_path / "stranger.replay"
    stranger.write_bytes(b"not a capture")
    with pytest.raises(SystemExit, match="not an evaluation capture"):
        replay_evaluations.load(stranger)
    # Under the header, a pickle may still name only the library's classes.
    for stranger_global in (os.getcwd, serialize.loads):
        stranger.write_bytes(replay_evaluations.HEADER + pickle.dumps(stranger_global))
        with pytest.raises(pickle.UnpicklingError, match="does not name"):
            replay_evaluations.load(stranger)
