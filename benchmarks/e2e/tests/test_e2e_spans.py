"""Self-time arithmetic of the span recorder."""

import spans
from spans import SpanRecorder, self_times


def test_self_time_is_duration_minus_direct_children():
    # root 0..100 ; a 10..60 (child b 20..30, child c 30..50) ; d 70..90
    tree = [
        ("root", 0, 100, -1, -1),
        ("a", 10, 60, 0, 0),
        ("b", 20, 30, 1, 0),
        ("c", 30, 50, 1, 0),
        ("d", 70, 90, 0, 1),
    ]
    assert self_times(tree) == {"root": 30, "a": 20, "b": 10, "c": 20, "d": 20}
    assert sum(self_times(tree).values()) == 100  # adds up to the root


def test_same_layer_nested_adds_up():
    tree = [("fold", 0, 50, -1, -1), ("fold", 10, 40, 0, -1)]
    assert self_times(tree) == {"fold": 50}


def _fake_clock(monkeypatch, ticks):
    iterator = iter(ticks)
    monkeypatch.setattr(spans, "perf_counter_ns", lambda: next(iterator))


def test_recorder_running_totals_match_the_reference(monkeypatch):
    # outer opens at 0, inner 5..25, inner 30..40, outer closes at 100.
    _fake_clock(monkeypatch, [0, 5, 25, 30, 40, 100])
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda rows: len(rows), units=lambda args: len(args[0]))
    outer = recorder.wrap("outer", lambda: inner([1, 2]) + inner([3]))
    assert outer() == 3
    assert recorder.cells == {"outer": [1, 70, 0], "inner": [2, 30, 3]}
    assert {k: v[1] for k, v in recorder.cells.items()} == self_times(recorder.spans)
    assert [s[3] for s in recorder.spans] == [-1, 0, 0]  # the stack is the parent


def test_self_time_survives_an_exception(monkeypatch):
    _fake_clock(monkeypatch, [0, 10, 30, 50])
    recorder = SpanRecorder()

    def fail():
        raise KeyError("boom")

    inner = recorder.wrap("inner", fail)

    def call():
        try:
            inner()
        except KeyError:
            return "caught"

    assert recorder.wrap("outer", call)() == "caught"
    assert recorder.cells["inner"][:2] == [1, 20]
    assert recorder.cells["outer"][:2] == [1, 30]
    assert recorder._layers == []  # nothing left open


def test_layer_can_depend_on_the_open_spans(monkeypatch):
    _fake_clock(monkeypatch, range(0, 1000, 10))
    recorder = SpanRecorder()
    callback = recorder.wrap(lambda open_layers: "under." + open_layers[-1], lambda: None)
    recorder.wrap("local", callback)()
    recorder.wrap("remote", callback)()
    assert set(recorder.cells) == {"local", "remote", "under.local", "under.remote"}


def test_only_the_first_ops_are_kept_as_tuples(monkeypatch):
    _fake_clock(monkeypatch, range(0, 1000, 10))
    recorder = SpanRecorder(keep_ops=2)
    op = recorder.wrap("op", lambda: None)
    for index in range(4):
        recorder.begin_op(index)
        op()
        recorder.end_op()
    assert recorder.cells["op"][0] == 4       # every span is accounted
    assert [s[4] for s in recorder.spans] == [0, 1]  # two are kept
