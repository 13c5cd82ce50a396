"""The tracer's span arithmetic and its wrapping of surfcond names."""

import sys

import layers
from tracer import Tracer, self_times_ns


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 30, 60, parent=0),  # overlaps a: the union [10, 60] is 50
        span("c", 15, 25, parent=1),
        span("d", 95, 120, parent=0),  # runs past its parent: only [95, 100] counts
    ]
    selfs = self_times_ns(spans)
    assert selfs["root"] == 100 - 50 - 5
    assert selfs["a"] == 30 - 10
    assert selfs["b"] == 30
    assert selfs["c"] == 10
    assert selfs["d"] == 25


def test_self_time_sums_over_repeated_names():
    spans = [span("f", 0, 10), span("f", 20, 50), span("g", 25, 35, parent=1)]
    assert self_times_ns(spans) == {"f": 10 + 20, "g": 10}


def test_nested_calls_record_parent_and_operation():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: 7)
    tracer.op_id = 3
    assert outer() == 7
    outer_span, inner_span = tracer.spans
    assert (outer_span[0], outer_span[3], outer_span[4]) == ("outer", None, 3)
    assert (inner_span[0], inner_span[3], inner_span[4]) == ("inner", 0, 3)
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


def _snapshot():
    out = {}
    for key, module in layers.package_modules():
        out[key] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == key:
                out[f"{key}.{attr}"] = dict(vars(value))
    return out


def test_install_wraps_imported_bindings_and_uninstall_restores_everything():
    layers.import_layers()
    from surfcond import ahss, em_cohomology, gf2

    before = _snapshot()
    original = em_cohomology.algebra_for
    tracer = Tracer()
    tracer.install(layers.PACKAGE, layers.TARGETS + ["abelian.no_such_name", "gf2.Gf2Matrix.nope"])
    try:
        assert tracer.absent == ["abelian.no_such_name", "gf2.Gf2Matrix.nope"]
        assert em_cohomology.algebra_for is not original
        assert ahss.algebra_for is em_cohomology.algebra_for  # bound by `from .x import y`
        gf2.Gf2Matrix.from_rows([1, 2], 2).rank()
        assert [s[0] for s in tracer.spans] == ["gf2.Gf2Matrix.rank"]
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert all(isinstance(m, type(sys)) for _k, m in layers.package_modules())
