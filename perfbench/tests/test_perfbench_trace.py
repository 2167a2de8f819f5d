"""Span recording and self-time arithmetic, nested and across threads."""

import threading

import pytest

from perfbench import trace
from perfbench.trace import Span


def _span(span_id, name, start, end, parent=None, thread=1):
    return Span(span_id, name, start, end, parent, None, thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "read", 0.0, 10.0),
        _span(2, "join", 1.0, 4.0, parent=1),
        _span(3, "quality", 3.0, 6.0, parent=1),  # overlaps the join: counted once
        _span(4, "inner", 2.0, 3.0, parent=2),
    ]
    selves = trace.self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 5.0)
    assert selves[2] == pytest.approx(3.0 - 1.0)
    assert selves[3] == pytest.approx(3.0)
    assert selves[4] == pytest.approx(1.0)
    assert sum(selves.values()) == pytest.approx(10.0 + 1.0)  # overlap counted twice


def test_self_time_across_threads_clips_children_to_the_parent():
    spans = [
        _span(1, "read", 0.0, 10.0, thread=1),
        # Two handler spans on two server threads run side by side under one read.
        _span(2, "handler", 2.0, 7.0, parent=1, thread=2),
        _span(3, "handler", 5.0, 9.0, parent=1, thread=3),
        # A child that outlives its parent only covers the parent's interval.
        _span(4, "late", 8.0, 12.0, parent=3, thread=4),
    ]
    selves = trace.self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 7.0)
    assert selves[3] == pytest.approx(4.0 - 1.0)
    assert selves[4] == pytest.approx(4.0)


def test_recorder_links_parents_per_thread_and_by_explicit_parent():
    recorder = trace.Recorder()
    leaf = recorder.wrap("leaf", lambda value: value * 2)
    with recorder.span("read") as root:
        assert leaf(2) == 4
    seen = {}

    def server_thread():
        with recorder.span("handler", parent=root.id) as handler:
            seen["handler"] = handler
            leaf(3)

    worker = threading.Thread(target=server_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    assert [span.parent for span in by_name["leaf"]] == [root.id, seen["handler"].id]
    assert seen["handler"].parent == root.id
    assert seen["handler"].request == root.request
    assert by_name["leaf"][1].thread != root.thread
    kinds = trace.root_kinds(recorder.spans)
    assert {kinds[span.id] for span in recorder.spans} == {"read"}


def test_paused_recorder_records_nothing():
    recorder = trace.Recorder()
    leaf = recorder.wrap("leaf", lambda: 1)
    recorder.paused = True
    leaf()
    with recorder.span("read") as span:
        assert span is None
    assert recorder.spans == []


def test_installed_rebinds_and_restores_entry_points():
    from repro.graph import target
    from repro.service.session import AcquisitionService

    originals = (target.inner_join, AcquisitionService.__dict__["acquire"])
    with trace.installed(trace.Recorder()):
        assert target.inner_join is not originals[0]
        assert AcquisitionService.__dict__["acquire"] is not originals[1]
    assert (target.inner_join, AcquisitionService.__dict__["acquire"]) == originals


def test_aggregate_and_table_share_out_the_root_time():
    spans = [
        _span(1, "read", 0.0, 4.0),
        _span(2, "join", 0.0, 3.0, parent=1),
        _span(3, "read", 10.0, 12.0),
        _span(4, "join", 10.0, 11.0, parent=3),
        _span(5, "write", 20.0, 30.0),
    ]
    totals = trace.aggregate(spans)
    assert totals[("read", "read")].seconds == pytest.approx(6.0)
    assert totals[("read", "read")].self_seconds == pytest.approx(2.0)
    assert totals[("read", "join")].calls == 2
    assert totals[("read", "join")].self_seconds == pytest.approx(4.0)
    assert ("read", "write") not in totals
    table = trace.format_table("read", totals, 2)
    assert "66.7%" in table and "read (unattributed)" in table
