import itertools

import pytest

import spans
from spans import Span, Tracer, self_times


def span(name, start, end, parent=None, label=None):
    return Span(name, float(start), float(end), parent, "run", label)


def test_self_time_subtracts_union_of_nested_adjacent_and_overlapping_children():
    tree = [
        span("root", 0, 10),
        span("a", 1, 4, parent=0),
        span("a.inner", 2, 3, parent=1),
        span("b", 4, 6, parent=0),       # adjacent to a
        span("c", 5, 7, parent=0),       # overlaps b
        span("d", 9, 12, parent=0),      # runs past its parent; only 9..10 counts
    ]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0, 3.0])


def test_span_without_children_keeps_its_whole_duration():
    assert self_times([span("only", 2, 5)]) == [3.0]


def test_traced_calls_nest_and_self_times_add_up_to_the_root(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = Tracer("run")

    def leaf():
        return 1

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    assert tracer.call("cli.main", middle, label="study") == 2
    parents = [s.parent for s in tracer.spans]
    assert [s.name for s in tracer.spans] == ["cli.main", "leaf", "leaf"]
    assert parents == [None, 0, 0]
    (total, wall), = spans.command_balance(tracer).values()
    assert total == wall == 5.0


def test_run_study_self_time_is_split_by_command():
    tracer = Tracer("run")
    tracer.spans = [
        span("cli.main", 0, 10, label="study"),
        span("study.run_study", 1, 9, parent=0),
        span("optimizer.optimize_static", 2, 5, parent=1),
        span("cli.main", 10, 20, label="rerun"),
        span("study.run_study", 11, 18, parent=3),
    ]
    metrics = spans.layer_metrics(tracer)
    assert metrics["study.run_study.self_s"] == pytest.approx(5.0)
    assert metrics["study.run_study.pool_s"] == pytest.approx(7.0)
    assert metrics["optimizer.optimize.self_s"] == pytest.approx(3.0)
    assert metrics["cli.main.self_s"] == pytest.approx(2.0 + 3.0)


def test_installed_wraps_names_imported_elsewhere_and_restores_them():
    import capsub.cli
    import capsub.ingest
    import capsub.study

    original = capsub.ingest.parse_load_csv
    tracer = Tracer("run")
    with spans.installed(tracer):
        assert capsub.cli.parse_load_csv is capsub.study.parse_load_csv
        assert capsub.cli.parse_load_csv is not original
    assert capsub.cli.parse_load_csv is original
    assert capsub.study.parse_load_csv is original
