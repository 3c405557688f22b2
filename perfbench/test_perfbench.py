"""Self-tests of the benchmark's own arithmetic, inputs and output checks."""

import pytest

from perfbench import checks, inputs
from perfbench.tracing import Span, Tracer, self_times, union_length


def span(sid, start, end, parent=None, name="f"):
    return Span(sid, name, start, end, parent, None, "items")


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping, as on two
    # threads) and [8, 9]; child 1 has a grandchild [1.5, 2.5] that must not
    # reduce the root's self time a second time.
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 6.0, parent=0),
        span(3, 8.0, 9.0, parent=0),
        span(4, 1.5, 2.5, parent=1),
        span(5, 11.0, 12.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.0)


def test_union_length_merges_touching_and_nested_intervals():
    assert union_length([(0, 1), (1, 2), (0.5, 0.7), (3, 4), (5, 5)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_tracer_links_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    module = type("module", (), {"outer": staticmethod(outer)})
    tracer = Tracer()
    tracer.patch(Owner, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.restore()
    assert Owner.inner(1) == 2 and len(tracer.spans) == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    files = {}
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        out = tmp_path / sub
        out.mkdir()
        train, query = inputs.gaussian_linear(seed, 50, 3, 10, out)
        data = inputs.nonlinear(seed, 40, 8, out)
        files[sub] = [path.read_bytes() for path in (train, query, data)]
    assert files["a"] == files["b"]
    assert all(x != y for x, y in zip(files["a"], files["c"]))


def test_checker_rejects_non_nested_sets():
    inf = float("inf")
    nested = {"cross": ((0.0, 1.0), (2.0, 3.0)), "cv+": ((-1.0, 3.5),),
              "e-cross": ((2.0, 2.5),)}
    assert checks.chain_violations(nested) == []
    broken = dict(nested, **{"e-cross": ((0.5, 2.5),)})
    assert checks.chain_violations(broken) == ["e-cross not inside cross"]
    assert not checks.is_nested(((-inf, 0.0),), ((-1.0, 1.0),))
    assert checks.is_nested((), ((0.0, 0.0),))


def test_coverage_shortfall_uses_three_standard_errors():
    floors = {"split": 0.9}
    assert checks.coverage_shortfalls({"split": 880}, {"split": 1000}, floors) == []
    assert checks.coverage_shortfalls({"split": 860}, {"split": 1000}, floors)


def test_digest_covers_only_the_first_outputs():
    a, b = checks.Digest(2), checks.Digest(2)
    for text in ("x", "y", "z"):
        a.add(text)
    for text in ("x", "y", "other"):
        b.add(text)
    assert a.hexdigest() == b.hexdigest() and a.count == 2
