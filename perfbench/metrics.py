"""Metric names and units, shared by run.py and the traced rounds.

A traced process reports additive per-layer totals (layers.layer_totals),
so that the processes of one round can be summed; finish() turns the
totals into the metrics of LAYER.
"""

END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics of a traced round: name -> unit, in report order
LAYER = {
    "enumeration.represented_mask.self_s": "s",
    "enumeration.represented_mask.calls": "count",
    "enumeration.points_per_s": "1/s",
    "enumeration.representations.self_s": "s",
    "enumeration.representations.calls": "count",
    "enumeration.representations.vectors": "count",
    "isometry.find_transforms.self_s": "s",
    "isometry.find_transforms.calls": "count",
    "isometry.find_transforms.cache_hits": "count",
    "isometry.find_transforms.matrices": "count",
    "isometry.find_transforms.incomplete": "count",
    "isometry.subform_witness.self_s": "s",
    "isometry.is_isometric.self_s": "s",
    "congruence.precedes.self_s": "s",
    "congruence.precedes.calls": "count",
    "congruence.precedes.cosets": "count",
    "congruence.precedes.bad_cosets": "count",
    "congruence.cover_check.self_s": "s",
    "congruence.attainable_residues.self_s": "s",
    "congruence.attainable_residues.calls": "count",
    "congruence.attainable_residues.grid_cells": "count",
    "prover.search_cover.self_s": "s",
    "prover.search_cover.calls": "count",
    "prover.class_yield": "ratio",
    "prover.build_escape.self_s": "s",
    "prover.build_escape.calls": "count",
    "prover.evaluate_escape_matrix.calls": "count",
    "prover.escape_yield": "ratio",
    "prover.prove_pair.self_s": "s",
    "prover.verify_pairwise.self_s": "s",
    "certificate.emit.self_s": "s",
    "certificate.check.self_s": "s",
    "certificate.check.congruence_s": "s",
    "mat.act.calls": "count",
    "mat.eigen_lines.calls": "count",
}

# reported by the traced run besides the layer metrics
PER_LAYER = {**LAYER, "cert_bytes": "bytes", "trace.overhead_s": "s"}

# additive inputs of the ratio metrics
POINTS = "enumeration.represented_mask.points"
TRIED = "prover.class_yield.tried"
ACCEPTED = "prover.class_yield.accepted"
ESCAPES = "prover.escape_yield.escapes"
RATIOS = {"enumeration.points_per_s", "prover.class_yield", "prover.escape_yield"}


def summed(totals: list) -> dict:
    """The sum of several processes' per-layer totals."""
    return {key: sum(t[key] for t in totals) for key in totals[0]}


def finish(totals: dict) -> dict:
    """The metrics of LAYER, in its order, from (summed) per-layer totals."""
    mask_s = totals["enumeration.represented_mask.self_s"]
    escape_calls = totals["prover.evaluate_escape_matrix.calls"]
    ratios = {
        "enumeration.points_per_s": totals[POINTS] / mask_s if mask_s else 0.0,
        "prover.class_yield": totals[ACCEPTED] / totals[TRIED] if totals[TRIED] else 0.0,
        "prover.escape_yield": totals[ESCAPES] / escape_calls if escape_calls else 0.0,
    }
    return {key: ratios[key] if key in RATIOS else totals[key] for key in LAYER}
