"""Self-time accounting of the span tracer, on a fake clock."""

import pytest

import tracer as tracer_module
from tracer import Tracer


@pytest.fixture
def fake_clock(monkeypatch):
    """``now[0]`` is the clock; ``work(ns)`` advances it."""
    now = [0]
    monkeypatch.setattr(tracer_module.time, "perf_counter_ns",
                        lambda: now[0])

    def work(ns):
        now[0] += ns

    return work


def test_nested_spans_split_self_time_by_layer(fake_clock):
    t = Tracer()
    work = fake_clock

    def leaf():
        work(7)

    def inner():
        work(3)
        leaf_traced()
        work(2)

    def outer():
        work(10)
        inner_traced()
        work(5)

    leaf_traced = t.wrap(leaf, "leaf", "b")        # same layer as inner
    inner_traced = t.wrap(inner, "inner", "b")
    outer_traced = t.wrap(outer, "outer", "a")
    outer_traced()

    entries = t.by_name()
    assert entries["leaf"] == {"calls": 1, "total_ns": 7, "self_ns": 7}
    assert entries["inner"] == {"calls": 1, "total_ns": 12, "self_ns": 5}
    assert entries["outer"] == {"calls": 1, "total_ns": 27, "self_ns": 15}
    # Same-layer nesting never double counts: b's self is inner's total.
    assert t.layer_self_ns() == {"a": 15, "b": 12}
    by_name = {t.names[span[0]]: span for span in t.spans}
    assert by_name["outer"][4] == -1
    assert by_name["inner"][4] == by_name["outer"][3]
    assert by_name["leaf"][4] == by_name["inner"][3]


def test_recursion_and_harness_span(fake_clock):
    t = Tracer()
    work = fake_clock

    def countdown(n):
        work(1)
        if n:
            traced(n - 1)

    traced = t.wrap(countdown, "countdown", "a")
    with t.span("round"):
        work(4)
        traced(2)
    entries = t.by_name()
    assert entries["countdown"]["calls"] == 3
    assert entries["countdown"]["self_ns"] == 3
    assert entries["round"] == {"calls": 1, "total_ns": 7, "self_ns": 4}
    assert sum(t.layer_self_ns().values()) == entries["round"]["total_ns"]


def test_span_cap_keeps_aggregates_exact(fake_clock):
    t = Tracer(cap=2)
    traced = t.wrap(lambda: fake_clock(1), "f", "a")
    for _ in range(5):
        traced()
    assert len(t.spans) == 2 and t.dropped == 3
    assert t.by_name()["f"] == {"calls": 5, "total_ns": 5, "self_ns": 5}
    assert len(t.chrome_trace()["traceEvents"]) == 2


def test_exceptions_still_close_spans(fake_clock):
    t = Tracer()

    def boom():
        fake_clock(2)
        raise ValueError("x")

    traced = t.wrap(boom, "boom", "a")
    with pytest.raises(ValueError):
        traced()
    assert t.by_name()["boom"]["total_ns"] == 2
    assert t._stack == []


def test_install_rebinds_imported_names_and_uninstall_restores():
    from repro.fleet import scheduler, traffic
    from repro.hw.ept import EPTPList

    plan, set_ = traffic.tenant_plan, EPTPList.set
    t = Tracer()
    t.install({"fleet": ("repro.fleet.traffic:tenant_plan",),
               "hw": ("repro.hw.ept:EPTPList.set",)})
    try:
        assert traffic.tenant_plan is not plan
        assert traffic.tenant_plan.__wrapped__ is plan
        assert EPTPList.set.__wrapped__ is set_
        traffic.tenant_plan(3, 0)
        assert t.by_name()["traffic.tenant_plan"]["calls"] == 1
    finally:
        t.uninstall()
    assert traffic.tenant_plan is plan and EPTPList.set is set_
    assert scheduler.traffic.tenant_plan is plan
