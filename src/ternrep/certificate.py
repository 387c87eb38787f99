"""Serialized pair proofs and an independent, search-free checker.

A certificate contains raw integers only: the two forms, one record per
inclusion direction, and for cover proofs the per-class witness
transforms, coset-to-transform assignments, and escape records.  check()
re-verifies every claim from scratch - matrix identities, residue-coset
scans, divisibility of transported cosets, cover arithmetic - without
ever searching for transforms, so it does not trust the prover.  It
shares no residue arithmetic with the prover's search either: cover
arithmetic is a direct scan of all L^3 cosets, where the prover factors
L by the Chinese remainder theorem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _mat
from .congruence import ResidueClass, _residue_array
from .forms import QuadForm, doubled_gram, evaluate, is_positive_definite
from .prover import (
    AUTO_MODULI,
    CoverDirection,
    PairProof,
    SubformDirection,
)

CERT_VERSION = 1
# the largest cover modulus the prover's search uses (144); bounds every
# L^3 scan below to ~24 MB whatever the certificate says
MAX_MODULUS = lcm(*AUTO_MODULI)


def _matrix_json(T):
    return [[int(x) for x in row] for row in T]


def _vec_json(v):
    return [int(x) for x in v]


def _class_json(proof) -> dict:
    used = sorted({proof.report.transforms.matrices[idx] for _, idx in proof.report.good})
    index_of = {T: i for i, T in enumerate(used)}
    witnesses = sorted(
        ([_vec_json(v), index_of[proof.report.transforms.matrices[idx]]]
         for v, idx in proof.report.good),
        key=lambda w: w[0],
    )
    escape = None
    if proof.escape is not None:
        escape = {
            "matrix": _matrix_json(proof.escape.matrix),
            "bad": sorted(_vec_json(v) for v in proof.escape.bad),
            "eigenvectors": sorted(
                (
                    {
                        "vector": _vec_json(fam.vector),
                        "eigenvalue": int(fam.eigenvalue),
                        "power": int(fam.power),
                        "base": int(fam.base),
                        "witness": _vec_json(fam.witness),
                    }
                    for fam in proof.escape.families
                ),
                key=lambda e: (e["power"], e["eigenvalue"], e["vector"]),
            ),
        }
    return {
        "d": proof.cls.d,
        "a": proof.cls.a,
        "transforms": [_matrix_json(T) for T in used],
        "witnesses": witnesses,
        "escape": escape,
    }


def _direction_json(direction) -> dict:
    if isinstance(direction, SubformDirection):
        return {"kind": "subform", "matrix": _matrix_json(direction.witness)}
    if isinstance(direction, CoverDirection):
        return {
            "kind": "cover",
            "classes": [
                _class_json(proof)
                for proof in sorted(direction.classes, key=lambda p: (p.cls.d, p.cls.a))
            ],
        }
    raise TypeError(f"unknown direction record {type(direction).__name__}")


def proof_to_dict(proof: PairProof) -> dict:
    return {
        "version": CERT_VERSION,
        "f": _vec_json(proof.f.coefficients),
        "g": _vec_json(proof.g.coefficients),
        "empirical_bound": int(proof.empirical_bound),
        "f_in_g": _direction_json(proof.f_in_g),
        "g_in_f": _direction_json(proof.g_in_f),
    }


def emit(proof: PairProof) -> bytes:
    """Canonical serialization: sorted keys, compact separators, decimal ints."""
    return json.dumps(proof_to_dict(proof), sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Verdict:
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(ok)"
        return f"Verdict(FAIL at {self.clause}: {self.detail})"


def _fail(clause, detail=""):
    return Verdict(False, clause, detail)


def _as_int(obj):
    # JSON true/false, strings and floats are not integers
    if type(obj) is not int:
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj


def _as_ints(obj, n):
    if not isinstance(obj, list) or len(obj) != n or any(type(x) is not int for x in obj):
        raise ValueError(f"expected a list of {n} integers, got {obj!r}")
    return tuple(obj)


def _as_matrix(obj):
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValueError("matrix must be 3x3 integer rows")
    return tuple(_as_ints(row, 3) for row in obj)


def _attained_residues(g, L):
    """Residues mod L that g attains, by a direct scan of all L^3 cosets."""
    a, b, c, r, s, t = (k % L for k in g.coefficients)  # int64-safe for any coefficients
    v = np.arange(L, dtype=np.int64)
    x, y, z = v[:, None, None], v[None, :, None], v[None, None, :]
    values = a * x * x + b * y * y + c * z * z + r * y * z + s * x * z + t * x * y
    return np.unique(values % L).tolist()


def _check_cover(tag, sub, sup, record):
    """Verify one cover direction proving Q(sub) <= Q(sup)."""
    classes = record.get("classes")
    if not isinstance(classes, list) or not classes:
        return _fail(f"{tag}.schema", "cover record needs a nonempty class list")
    G_sub = doubled_gram(sub)
    G_sup = doubled_gram(sup)
    try:
        class_ids = [ResidueClass(_as_int(rec["d"]), _as_int(rec["a"])) for rec in classes]
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"{tag}.schema", str(exc))
    # cover arithmetic: every attainable residue lies in some class
    modulus = 1
    for cls in class_ids:
        modulus = lcm(modulus, cls.d)
    if modulus > MAX_MODULUS:
        return _fail(f"{tag}.limits", f"lcm of class moduli {modulus} exceeds {MAX_MODULUS}")
    for rho in _attained_residues(sub, modulus):
        if not any(rho % cls.d == cls.a for cls in class_ids):
            return _fail(f"{tag}.cover", f"attainable residue {rho} mod {modulus} uncovered")
    for rec, cls in zip(classes, class_ids):
        d, a = cls.d, cls.a
        ctag = f"{tag}.class({d},{a})"
        try:
            transforms = [_as_matrix(T) for T in rec.get("transforms", [])]
            witnesses = [(_as_ints(w[0], 3), w[1]) for w in rec.get("witnesses", [])]
        except (LookupError, TypeError, ValueError) as exc:
            return _fail(f"{ctag}.schema", str(exc))
        scale = d * d
        for i, T in enumerate(transforms):
            if _mat.congruence(T, G_sup) != _mat.scalar_mul(scale, G_sub):
                return _fail(f"{ctag}.transform_identity", f"table entry {i}")
        cosets = {tuple(map(int, row)) for row in _residue_array(sub, cls)}
        escape = rec.get("escape")
        bad = []
        if escape is not None:
            try:
                bad = [_as_ints(v, 3) for v in escape.get("bad", [])]
            except (AttributeError, TypeError, ValueError) as exc:
                return _fail(f"{ctag}.schema", str(exc))
        claimed = {}
        for v, ti in witnesses:
            if type(ti) is not int or not 0 <= ti < len(transforms):
                return _fail(f"{ctag}.schema", f"witness index {ti!r} out of range")
            if v in claimed:
                return _fail(f"{ctag}.partition", f"coset {v} listed twice")
            claimed[v] = ti
        for v in bad:
            if v in claimed:
                return _fail(f"{ctag}.partition", f"coset {v} both witnessed and bad")
            claimed[v] = None
        if set(claimed) != cosets:
            missing = cosets - set(claimed)
            extra = set(claimed) - cosets
            which = f"missing {sorted(missing)[:3]}" if missing else f"extra {sorted(extra)[:3]}"
            return _fail(f"{ctag}.partition", which)
        for v, ti in claimed.items():
            if ti is None:
                continue
            image = _mat.act(transforms[ti], v)
            if any(c % d for c in image):
                return _fail(f"{ctag}.witness_integrality", f"coset {v}")
        if bad or escape is not None:
            verdict = _check_escape(ctag, sub, sup, cls, escape, bad)
            if not verdict.ok:
                return verdict
    return Verdict(True)


def _check_escape(ctag, sub, sup, cls, escape, bad):
    etag = ctag.replace(".class", ".escape")
    if escape is None:
        return _fail(f"{etag}.missing", "bad cosets without an escape record")
    d = cls.d
    try:
        E = _as_matrix(escape["matrix"])
        eigen_entries = [
            (_as_ints(e["vector"], 3), _as_int(e["eigenvalue"]), _as_int(e["power"]),
             _as_int(e["base"]), _as_ints(e["witness"], 3))
            for e in escape.get("eigenvectors", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"{etag}.schema", str(exc))
    G_sub = doubled_gram(sub)
    if _mat.congruence(E, G_sub) != _mat.scalar_mul(d * d, G_sub):
        return _fail(f"{etag}.identity", "E^t (2M) E != d^2 (2M)")
    for u in bad:
        if any(c % d for c in _mat.act(E, u)):
            return _fail(f"{etag}.integrality", f"coset {u}")
    if _mat.is_finite_order_scaled(E, d):
        return _fail(f"{etag}.finite_order", "(1/d) E has finite order")
    recorded = {tuple(v): (lam, base, w) for v, lam, _, base, w in eigen_entries}
    power = _mat.IDENTITY
    for k in range(1, 7):
        power = _mat.mat_mul(power, E)
        lines = _mat.eigen_lines(power)
        per_eigenvalue = {}
        for v, lam in lines:
            per_eigenvalue.setdefault(lam, []).append(v)
        if any(len(vs) > 1 for vs in per_eigenvalue.values()):
            return _fail(f"{etag}.eigenspace", f"power {k} has a multi-dimensional eigenspace")
        for v, lam in lines:
            if v not in recorded:
                return _fail(f"{etag}.eigenvector_missing", f"eigenvector {v} of power {k}")
    for v, (lam, base, w) in recorded.items():
        if evaluate(sub, v) != base:
            return _fail(f"{etag}.eigenvector_base", f"vector {v}: base != value")
        if evaluate(sup, w) != base:
            return _fail(f"{etag}.base_witness", f"base {base}: witness value differs")
    return Verdict(True)


def check(cert) -> Verdict:
    """Re-verify every claim of a certificate from raw integers.

    Accepts the bytes/str emitted by emit(), or an already-parsed dict.
    Runs no transform search; cost is matrix arithmetic plus d^3 coset
    scans, with every modulus at most MAX_MODULUS.
    """
    if isinstance(cert, (bytes, str)):
        try:
            cert = json.loads(cert)
        except json.JSONDecodeError as exc:
            return _fail("schema", f"not valid JSON: {exc}")
    if not isinstance(cert, dict):
        return _fail("schema", "certificate must be a JSON object")
    version = cert.get("version")
    if type(version) is not int or version != CERT_VERSION:
        return _fail("version", f"expected {CERT_VERSION}, got {version!r}")
    try:
        f = QuadForm(*_as_ints(cert["f"], 6))
        g = QuadForm(*_as_ints(cert["g"], 6))
    except (KeyError, ValueError) as exc:
        return _fail("schema", f"bad form coefficients: {exc}")
    bound = cert.get("empirical_bound")
    if type(bound) is not int or bound < 0:
        return _fail("schema", "empirical_bound must be a nonnegative integer")
    for name, form in (("f", f), ("g", g)):
        if not is_positive_definite(form):
            return _fail(f"form.positive_definite({name})", str(form))
    for tag, sub, sup in (("f_in_g", f, g), ("g_in_f", g, f)):
        record = cert.get(tag)
        if not isinstance(record, dict):
            return _fail(f"{tag}.missing", "direction record absent")
        kind = record.get("kind")
        if kind == "subform":
            try:
                T = _as_matrix(record["matrix"])
            except (KeyError, ValueError) as exc:
                return _fail(f"{tag}.schema", str(exc))
            if _mat.congruence(T, doubled_gram(sup)) != doubled_gram(sub):
                return _fail(f"{tag}.subform_identity", "T^t (2M_sup) T != 2M_sub")
        elif kind == "cover":
            verdict = _check_cover(tag, sub, sup, record)
            if not verdict.ok:
                return verdict
        else:
            return _fail(f"{tag}.schema", f"unknown direction kind {kind!r}")
    return Verdict(True)
