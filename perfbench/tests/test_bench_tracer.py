import threading
import time

import pytest

from tracer import Span, Tracer, self_times, union_length


def _span(name, parent, start, end):
    s = Span(name, parent)
    s.start, s.end = start, end
    return s


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_self_time_of_nested_spans():
    root = _span("a.root", None, 0.0, 10.0)
    left = _span("b.left", root, 1.0, 4.0)
    right = _span("b.right", root, 3.0, 6.0)
    leaf = _span("c.leaf", left, 2.0, 3.0)
    own = self_times([root, left, right, leaf])
    assert own[id(root)] == pytest.approx(5.0)  # children cover [1, 6] once
    assert own[id(left)] == pytest.approx(2.0)
    assert own[id(right)] == pytest.approx(3.0)
    assert own[id(leaf)] == pytest.approx(1.0)


def test_two_thread_children_are_subtracted_once():
    tracer = Tracer()
    nap = tracer.spanned("layer.child", lambda: time.sleep(0.2))

    def parent():
        workers = [threading.Thread(target=nap) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        time.sleep(0.1)

    traced_parent = tracer.spanned("top.parent", parent)
    tracer.install([])  # makes this thread the owner that pool workers attach to
    traced_parent()
    top = next(s for s in tracer.spans if s.name == "top.parent")
    kids = [s for s in tracer.spans if s.name == "layer.child"]
    assert len(kids) == 2 and all(k.parent is top for k in kids)
    own = self_times(tracer.spans)
    covered = union_length([(k.start, k.end) for k in kids], top.start, top.end)
    assert covered < 0.35  # the two 0.2 s children overlap
    assert own[id(top)] == pytest.approx(top.end - top.start - covered)
    assert own[id(top)] >= 0.09


def test_install_patches_every_binding_and_keeps_the_cache(tmp_path):
    import layers
    from ternrep import congruence, isometry, prover

    original = isometry.find_transforms
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert congruence.find_transforms is not original
        assert congruence.find_transforms is isometry.find_transforms
        assert prover.precedes is congruence.precedes
        assert congruence.find_transforms.cache_info() == original.cache_info()
        assert congruence.find_transforms.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert isometry.find_transforms is original and congruence.find_transforms is original


def test_layer_metrics_on_a_small_proof():
    import layers
    import metrics
    import ternrep as tr

    f, g = tr.named_form("S4f"), tr.named_form("S4g")
    tracer = Tracer()
    layers.install(tracer)
    try:
        blob = tr.emit(tr.prove_pair(f, g, empirical_bound=1000))
        assert tr.check(blob)
    finally:
        tracer.uninstall()
    m = metrics.finish(layers.layer_totals(tracer, 0))
    assert set(m) == set(metrics.LAYER)
    assert m["prover.search_cover.calls"] >= 1
    assert m["congruence.precedes.calls"] >= 1
    assert m["certificate.check.self_s"] > 0
    assert m["certificate.check.congruence_s"] > 0
    assert 0 < m["prover.class_yield"] <= 1
    assert m["mat.act.calls"] > 0


def test_ratios_of_summed_processes_are_taken_over_the_sums():
    import metrics

    def totals(mask_s, points, tried, accepted, escape_calls, escapes):
        t = {key: 0 for key in metrics.LAYER if key not in metrics.RATIOS}
        t.update({"enumeration.represented_mask.self_s": mask_s, metrics.POINTS: points,
                  metrics.TRIED: tried, metrics.ACCEPTED: accepted,
                  "prover.evaluate_escape_matrix.calls": escape_calls, metrics.ESCAPES: escapes})
        return t

    m = metrics.finish(metrics.summed([totals(1.0, 100.0, 4, 1, 0, 0), totals(3.0, 500.0, 0, 0, 5, 2)]))
    assert list(m) == list(metrics.LAYER)
    assert m["enumeration.points_per_s"] == pytest.approx(150.0)
    assert m["prover.class_yield"] == pytest.approx(0.25)
    assert m["prover.escape_yield"] == pytest.approx(0.4)
    assert m["enumeration.represented_mask.self_s"] == pytest.approx(4.0)
