"""Self-time arithmetic and the tracer's wrappers."""

import json
from pathlib import Path

import pytest

import tracing
from tracing import Span, Tracer, self_times


def spans(*rows):
    return [Span(name, start, end, parent, None) for name, start, end, parent in rows]


def test_self_time_without_children_is_duration():
    assert self_times(spans(("a", 1.0, 3.5, None))) == [2.5]


def test_nested_children_count_once():
    # a [0, 10] > b [1, 6] > c [2, 5]; a loses only b's interval
    got = self_times(spans(("a", 0.0, 10.0, None), ("b", 1.0, 6.0, 0), ("c", 2.0, 5.0, 1)))
    assert got == pytest.approx([5.0, 2.0, 3.0])


def test_overlapping_children_count_their_union():
    # children [1, 4] and [3, 7] overlap on [3, 4]: union 6, not 7
    got = self_times(spans(("a", 0.0, 10.0, None), ("b", 1.0, 4.0, 0), ("c", 3.0, 7.0, 0)))
    assert got[0] == pytest.approx(4.0)


def test_children_outside_the_parent_are_clipped():
    got = self_times(spans(("a", 2.0, 6.0, None), ("b", 0.0, 3.0, 0), ("c", 5.0, 9.0, 0),
                           ("d", 4.0, 4.5, 0)))
    assert got[0] == pytest.approx(4.0 - 1.0 - 1.0 - 0.5)


def test_contained_and_disjoint_children():
    got = self_times(spans(("a", 0.0, 10.0, None), ("b", 1.0, 8.0, 0), ("c", 2.0, 3.0, 0),
                           ("d", 9.0, 9.5, 0)))
    assert got[0] == pytest.approx(10.0 - 7.0 - 0.5)


class Box:
    def f(self, x):
        return x + 1


def test_wrappers_record_parents_and_restore():
    tracer = Tracer()
    box = Box()
    original = Box.__dict__["f"]
    tracer.patch(Box, "f", "box.f", count=lambda t, args, result: t.counts.update(f=result))
    outer = tracer.wrap("outer", lambda: box.f(1) + box.f(2))
    assert outer() == 5 and tracer.spans == []  # inactive: nothing recorded
    tracer.active, tracer.op = True, 7
    assert outer() == 5
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", None, 7), ("box.f", 0, 7), ("box.f", 0, 7)]
    assert tracer.counts["f"] == 5
    tracer.uninstall()
    assert Box.__dict__["f"] is original


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.PER_LAYER_METRICS
