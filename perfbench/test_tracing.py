"""Checks of the tracer's arithmetic and of its handling of missing names.

    python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
import types

from tracing import Span, Target, Tracer, self_times


def span(id, start, end, parent=None, name="s"):
    return Span(id, name, start, end, parent, "img")


def test_self_time_subtracts_nested_children():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, parent=0),
        span(2, 15, 25, parent=1),
        span(3, 50, 90, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 100 - 30 - 40, 1: 30 - 10, 2: 10, 3: 40}
    # self times partition the root's interval
    assert sum(own.values()) == 100


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span(0, 0, 100),
        span(1, 10, 60, parent=0),
        span(2, 40, 80, parent=0),  # overlaps child 1 on [40, 60]
        span(3, 90, 130, parent=0),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[0] == 100 - (80 - 10) - (100 - 90)
    assert own[0] >= 0


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span(7, 5, 12)]) == {7: 7}


def _fake_module():
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    return module


def test_wrappers_record_nested_spans_and_restore_names():
    module = _fake_module()
    sys.modules["fake_layer"] = module
    try:
        original = module.inner
        tracer = Tracer()
        tracer.install([Target("fake_layer.outer", "outer"), Target("fake_layer.inner", "inner")])
        tracer.active = True
        assert module.outer(1) == 4
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].id
        assert tracer.counts["outer.calls"] == 1
        assert tracer.absent == []
        tracer.uninstall()
        assert module.inner is original
    finally:
        del sys.modules["fake_layer"]


def test_missing_names_are_reported_absent_not_raised():
    module = _fake_module()
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        tracer.install(
            [
                Target("fake_layer.gone", "gone"),
                Target("no_such_package.module.fn", "nowhere"),
                Target("fake_layer.inner", "inner"),
                Target("fake_layer.renamed", "inner"),  # the layer has another name
            ]
        )
        assert tracer.absent == ["gone", "nowhere"]
        assert "fake_layer.renamed" in tracer.absent_paths
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]


def test_observer_that_no_longer_fits_marks_the_layer_unobserved():
    module = _fake_module()
    sys.modules["fake_layer"] = module
    try:

        def observe(tracer, args, kwargs, result):
            return result["missing"]

        tracer = Tracer()
        tracer.install([Target("fake_layer.inner", "inner", observe)])
        tracer.active = True
        assert module.inner(1) == 2
        assert tracer.unobserved == {"inner"}
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
