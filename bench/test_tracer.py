"""Tests of the benchmark's tracer: python3 -m pytest bench/test_tracer.py"""

import json

import pytest

from tracer import Tracer


def _toy(tracer: Tracer):
    """root span -> 2 x build span -> 3 x compose leaf each; plus one
    oracle leaf that itself calls compose twice (a leaf inside a leaf)."""

    def compose(x):
        return sum(range(200 + x))

    compose = tracer.wrap(compose, "compose")

    def build():
        return [compose(i) for i in range(3)]

    build = tracer.wrap(build, "build", span=True)

    def oracle():
        return compose(1) + compose(2)

    oracle = tracer.wrap(oracle, "oracle")
    with tracer.span("root"):
        build()
        build()
        oracle()


def test_self_times_sum_to_root_wall_time_exactly():
    tr = Tracer("toy")
    _toy(tr)
    root = tr.spans[0]
    assert root["name"] == "root" and root["parent"] == -1
    assert tr.self_sum_ns() == root["end_ns"] - root["start_ns"]
    totals = tr.totals()
    assert all(t["self_ns"] >= 0 for t in totals.values())


def test_leaf_counts_are_exact_and_attributed_to_the_enclosing_span():
    tr = Tracer("toy")
    _toy(tr)
    totals = tr.totals()
    assert totals["compose"]["calls"] == 8
    assert totals["build"]["calls"] == 2
    assert totals["oracle"]["calls"] == 1
    assert totals["root"]["calls"] == 1
    builds = [s["id"] for s in tr.spans if s["name"] == "build"]
    assert [tr.leaves[(b, "compose")][0] for b in builds] == [3, 3]
    assert tr.leaves[(0, "compose")][0] == 2  # the oracle's two, under root
    assert all(s["parent"] == 0 for s in tr.spans if s["name"] == "build")


def test_nested_leaf_time_is_not_counted_twice():
    tr = Tracer("toy")
    _toy(tr)
    # every frame's self time is its duration minus its traced children, so
    # the per-name self times partition the root's duration
    assert sum(t["self_ns"] for t in tr.totals().values()) == tr.self_sum_ns()


def test_frames_close_when_the_wrapped_call_raises():
    tr = Tracer("toy")

    def boom():
        raise KeyError("x")

    boom = tr.wrap(boom, "boom")
    with tr.span("root"):
        with pytest.raises(KeyError):
            boom()
    assert tr.totals()["boom"]["calls"] == 1
    assert tr.self_sum_ns() == tr.spans[0]["end_ns"] - tr.spans[0]["start_ns"]


def test_written_trace_has_spans_leaves_and_extra_fields(tmp_path):
    tr = Tracer("toy")
    _toy(tr)
    path = tmp_path / "trace.json"
    tr.write(path, {"counts": {"compose.calls": 8}})
    doc = json.loads(path.read_text())
    assert doc["run"] == "toy"
    assert {s["name"] for s in doc["spans"]} == {"root", "build"}
    assert all(s["run"] == "toy" for s in doc["spans"])
    assert sum(leaf["calls"] for leaf in doc["leaves"] if leaf["name"] == "compose") == 8
    assert doc["counts"] == {"compose.calls": 8}


def test_write_refuses_an_open_frame(tmp_path):
    tr = Tracer("toy")
    with tr.span("root"):
        with pytest.raises(RuntimeError):
            tr.write(tmp_path / "t.json")
