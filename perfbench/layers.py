"""Which ternrep functions the traced run wraps, and the per-layer metrics.

Every public function of the layers below gets a span; so does
congruence._residue_array, which the checker imports.  The 3x3 integer
helpers of `_mat` and congruence.transport run per coset, so they get a
bare call counter instead of a span.

A span's own time is its duration minus the union of its child spans.
A function's self_s is the own time of its spans plus that of the
helpers below it in the same layer that have no metric of their own
(precedes keeps classify_good's coset scan, build_escape keeps
evaluate_escape_matrix), so the self_s values never count a second twice.
"""

from __future__ import annotations

import math

from ternrep import EscapeArgument, _mat, certificate, congruence, enumeration, isometry, prover

from metrics import ACCEPTED, ESCAPES, LAYER, POINTS, RATIOS, TRIED
from tracer import Tracer, self_times, union_length

SPANNED = {
    "enumeration": enumeration,
    "isometry": isometry,
    "congruence": congruence,
    "prover": prover,
    "certificate": certificate,
}
COUNTED = {"mat": _mat}
EXTRA_SPANNED = [("congruence", congruence, "_residue_array")]
EXTRA_COUNTED = [("congruence", congruence, "transport")]


def public_functions(module):
    """Names of the functions a module defines and does not mark private."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def ellipsoid_points(form, bound):
    """Lattice points expected in f(v) <= bound: (4 pi / 3)(2N)^(3/2) / sqrt(det 2M)."""
    a, b, c, r, s, t = form.coefficients
    det2m = 2 * a * (4 * b * c - r * r) - t * (2 * t * c - r * s) + s * (t * r - 2 * b * s)
    return 4 * math.pi / 3 * (2 * bound) ** 1.5 / math.sqrt(det2m)


def _obs_points(span, args, kwargs, result):
    span.info = ellipsoid_points(_arg(args, kwargs, 0, "form"), int(_arg(args, kwargs, 1, "bound")))


def _obs_len(span, args, kwargs, result):
    span.info = len(result)


def _obs_transforms(span, args, kwargs, result):
    span.info = (len(result.matrices), not result.complete)


def _obs_cosets(span, args, kwargs, result):
    span.info = (len(result.good) + len(result.bad), len(result.bad))


def _obs_grid(span, args, kwargs, result):
    span.info = int(_arg(args, kwargs, 1, "modulus")) ** 3


def _obs_escape(span, args, kwargs, result):
    span.info = isinstance(result, EscapeArgument)


OBSERVERS = {
    "enumeration.represented_mask": _obs_points,
    "enumeration.representations": _obs_len,
    "isometry.find_transforms": _obs_transforms,
    "congruence.precedes": _obs_cosets,
    "congruence.attainable_residues": _obs_grid,
    "prover.evaluate_escape_matrix": _obs_escape,
}


def install(tracer: Tracer) -> None:
    targets = []
    spanned = [(layer, mod, name) for layer, mod in SPANNED.items()
               for name in public_functions(mod)] + EXTRA_SPANNED
    for layer, mod, name in spanned:
        key = f"{layer}.{name}"
        targets.append((getattr(mod, name), tracer.spanned(key, getattr(mod, name), OBSERVERS.get(key))))
    counted = [(layer, mod, name) for layer, mod in COUNTED.items()
               for name in public_functions(mod)] + EXTRA_COUNTED
    for layer, mod, name in counted:
        targets.append((getattr(mod, name), tracer.counted(f"{layer}.{name}", getattr(mod, name))))
    tracer.install(targets)


def find_transforms_hits() -> int:
    return isometry.find_transforms.cache_info().hits


def _layer(name):
    return name.split(".", 1)[0]


def layer_totals(tracer: Tracer, cache_hits: int) -> dict:
    """Additive per-layer values of one traced process: the non-ratio
    metrics of metrics.LAYER plus the inputs of the ratio ones, so that
    the values of several processes can be summed (see metrics.finish)."""
    spans = tracer.spans
    reported = {key.rpartition(".")[0] for key in LAYER if key.endswith(".self_s")}
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    own_time = self_times(spans)
    self_s, calls, info = {}, {}, {}
    for s in spans:
        own = own_time[id(s)]
        calls[s.name] = calls.get(s.name, 0) + 1
        info.setdefault(s.name, []).append(s)
        # a helper without a metric of its own is charged to its caller in the same layer
        owner = s
        while owner is not None and owner.name not in reported and _layer(owner.name) == _layer(s.name):
            owner = owner.parent
        if owner is not None and owner.name in reported and _layer(owner.name) == _layer(s.name):
            self_s[owner.name] = self_s.get(owner.name, 0.0) + own

    def infos(name):
        return [s.info for s in info.get(name, ()) if s.info is not None]

    under_search = [s for s in info.get("congruence.precedes", ())
                    if s.parent is not None and s.parent.name == "prover.search_cover"]
    accepted = sum(1 for s in under_search if s.info and s.info[1] == 0)
    accepted += sum(1 for s in info.get("prover.build_escape", ())
                    if s.error is None and s.parent is not None
                    and s.parent.name == "prover.search_cover")
    escapes = infos("prover.evaluate_escape_matrix")
    checker_congruence = sum(
        union_length([(c.start, c.end) for c in children.get(id(s), ())
                      if _layer(c.name) == "congruence"], s.start, s.end)
        for s in info.get("certificate.check", ())
    )
    out = {
        POINTS: sum(infos("enumeration.represented_mask")),
        TRIED: len(under_search),
        ACCEPTED: accepted,
        ESCAPES: sum(escapes),
        "enumeration.representations.vectors": sum(infos("enumeration.representations")),
        "isometry.find_transforms.cache_hits": cache_hits,
        "isometry.find_transforms.matrices": sum(m for m, _ in infos("isometry.find_transforms")),
        "isometry.find_transforms.incomplete": sum(inc for _, inc in infos("isometry.find_transforms")),
        "congruence.precedes.cosets": sum(n for n, _ in infos("congruence.precedes")),
        "congruence.precedes.bad_cosets": sum(b for _, b in infos("congruence.precedes")),
        "congruence.attainable_residues.grid_cells": sum(infos("congruence.attainable_residues")),
        "prover.evaluate_escape_matrix.calls": len(escapes),
        "certificate.check.congruence_s": checker_congruence,
        "mat.act.calls": tracer.counts.get("mat.act", 0),
        "mat.eigen_lines.calls": tracer.counts.get("mat.eigen_lines", 0),
    }
    for key in LAYER:
        if key in out or key in RATIOS:
            continue
        fn, _, field = key.rpartition(".")
        out[key] = self_s.get(fn, 0.0) if field == "self_s" else calls.get(fn, 0)
    return out

