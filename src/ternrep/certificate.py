"""The certificate format and an independent, search-free checker.

It defines the format (CERT_VERSION, MAX_MODULUS, the bytes of encode)
and imports nothing from ternrep but forms and _mat, so a verdict of
check() trusts those three modules only; prover.emit writes the format.

A certificate contains raw integers only: the two forms, one record per
inclusion direction, and for cover proofs one record per residue class
holding the transforms that witness its good cosets and, when the class
has bad cosets, an escape record.  It lists no cosets: check() recomputes
the cosets of each class with its own scan, marks those the listed
transforms make integral, and requires the escape matrix to make every
remaining (bad) coset integral.  It re-verifies every claim from scratch
- matrix identities, residue-coset scans, divisibility of transported
cosets, the witness for the axis of each escape matrix, cover arithmetic
- without ever searching for transforms, so it does not trust the
prover.  It shares no residue arithmetic with the prover either: every
scan here is a direct one over all d^3 (or L^3) cosets, where the prover
factors L by the Chinese remainder theorem and classifies cosets with its
own code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _mat
from .forms import QuadForm, doubled_gram, evaluate, is_positive_definite

CERT_VERSION = 3
# the largest lcm of cover moduli; it bounds every L^3 scan below to ~15 MB
MAX_MODULUS = 144
# the keys each record may hold; any other key fails the record's schema clause
_KEYS = {
    "root": {"version", "f", "g", "empirical_bound", "f_in_g", "g_in_f"},
    "subform": {"kind", "matrix"},
    "cover": {"kind", "classes"},
    "class": {"d", "a", "transforms", "escape"},
    "escape": {"matrix", "witness"},
}


def encode(cert: dict) -> bytes:
    """Canonical serialization: sorted keys, compact separators, decimal ints."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":")).encode()


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


def _unknown_keys(record, kind):
    """A failure detail naming the keys of a record outside its kind's set, or ''."""
    extra = [key for key in record if key not in _KEYS[kind]]
    return f"unknown keys in {kind} record: {extra!r}" if extra else ""


def _as_list(obj):
    if not isinstance(obj, list):
        raise ValueError(f"expected a list, got {obj!r}")
    return obj


def _values_mod(form, L):
    """The L^3 grid of form(v) mod L over v in [0, L)^3, index order (x, y, z), uint8.

    With coefficients and coordinates reduced mod L each of the six terms
    is below L^3, so the sum stays below 6 L^3 < 2^31 for L <= 144 (the
    limits clause) and one int32 grid holds it.
    """
    a, b, c, r, s, t = (k % L for k in form.coefficients)
    v = np.arange(L, dtype=np.int32)
    x, y, z = v[:, None, None], v[None, :, None], v[None, None, :]
    grid = np.empty((L, L, L), dtype=np.int32)
    np.add(s * x + r * y, c * z, out=grid)
    grid *= z
    grid += a * x * x + t * x * y + b * y * y
    grid %= L
    return grid.astype(np.uint8)


def _attained_residues(grid, L):
    """Residues mod L attained on the L^3 grid of _values_mod, ascending."""
    hit = np.zeros(L, dtype=bool)
    hit[grid.ravel()] = True
    return np.flatnonzero(hit).tolist()


def _class_cosets(grid, a):
    """The cosets v in [0, d)^3 with form(v) = a (mod d), as (n, 3) int64
    rows, from the d^3 grid of _values_mod."""
    return np.argwhere(grid == a)


def _integral_rows(V, M, d):
    """Mask of the rows v of V with v M^t = 0 (mod d).

    M is reduced mod d first, so the int64 product stays below 3 d^2
    whatever the size of its entries.
    """
    M_t = np.array([[x % d for x in row] for row in M], dtype=np.int64).T
    return ~((V @ M_t) % d).any(axis=1)


def _check_cover(tag, sub, sup, record):
    """Verify one cover direction proving Q(sub) <= Q(sup)."""
    classes = record.get("classes")
    if not isinstance(classes, list) or not classes:
        return _fail(f"{tag}.schema", "cover record needs a nonempty class list")
    if unknown := _unknown_keys(record, "cover"):
        return _fail(f"{tag}.schema", unknown)
    G_sub = doubled_gram(sub)
    G_sup = doubled_gram(sup)
    class_ids = []
    for rec in classes:
        try:
            d, a = _as_int(rec["d"]), _as_int(rec["a"])
            if d < 1:
                raise ValueError("modulus d must be a positive integer")
            if not 0 <= a < d:
                raise ValueError(f"residue must satisfy 0 <= a < d, got ({d}, {a})")
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(f"{tag}.schema", str(exc))
        if unknown := _unknown_keys(rec, "class"):
            return _fail(f"{tag}.class({d},{a}).schema", unknown)
        class_ids.append((d, a))
    # cover arithmetic: every attainable residue lies in some class
    modulus = lcm(*(d for d, _ in class_ids))
    if modulus > MAX_MODULUS:
        return _fail(f"{tag}.limits", f"lcm of class moduli {modulus} exceeds {MAX_MODULUS}")
    # one direct scan per distinct modulus of the direction, all below 4 MB
    # together, since every modulus divides the lcm
    grids = {modulus: _values_mod(sub, modulus)}
    for rho in _attained_residues(grids[modulus], modulus):
        if not any(rho % d == a for d, a in class_ids):
            return _fail(f"{tag}.cover", f"attainable residue {rho} mod {modulus} uncovered")
    for rec, (d, a) in zip(classes, class_ids):
        ctag = f"{tag}.class({d},{a})"
        try:
            transforms = [_as_matrix(T) for T in _as_list(rec["transforms"])]
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(f"{ctag}.schema", str(exc))
        scale = d * d
        for i, T in enumerate(transforms):
            if _mat.congruence(T, G_sup) != _mat.scalar_mul(scale, G_sub):
                return _fail(f"{ctag}.transform_identity", f"table entry {i}")
        # a coset is good when some listed transform makes it integral; the
        # rest are the bad cosets the escape record has to handle
        if d not in grids:
            grids[d] = _values_mod(sub, d)
        bad = _class_cosets(grids[d], a)
        for T in transforms:
            bad = bad[~_integral_rows(bad, T, d)]
        escape = rec.get("escape")
        if len(bad) or escape is not None:
            verdict = _check_escape(ctag, sub, sup, d, escape, bad)
            if not verdict.ok:
                return verdict
    return Verdict(True)


def _check_escape(ctag, sub, sup, d, escape, bad):
    etag = ctag.replace(".class", ".escape")
    if escape is None:
        return _fail(f"{etag}.missing", f"{len(bad)} cosets no listed transform makes integral")
    try:
        if not isinstance(escape, dict):
            raise ValueError(f"escape record must be an object, got {escape!r}")
        if unknown := _unknown_keys(escape, "escape"):
            raise ValueError(unknown)
        E = _as_matrix(escape["matrix"])
        witness = _as_ints(escape["witness"], 3)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"{etag}.schema", str(exc))
    G_sub = doubled_gram(sub)
    if _mat.congruence(E, G_sub) != _mat.scalar_mul(d * d, G_sub):
        return _fail(f"{etag}.identity", "E^t (2M) E != d^2 (2M)")
    stuck = bad[~_integral_rows(bad, E, d)]
    if len(stuck):
        return _fail(f"{etag}.integrality", f"coset {tuple(stuck[0].tolist())}")
    if _mat.is_finite_order_scaled(E, d):
        return _fail(f"{etag}.finite_order", "(1/d) E has finite order")
    # the axis is the one rational eigenline of every power of E, so its
    # values m t^2 are the only ones that may never leave the bad cosets;
    # the witness covers them all, since sup(t w) = m t^2
    v = _mat.axis(E, d)
    lam = _mat.det(E) // (d * d)
    if tuple(sum(E[i][j] * v[j] for j in range(3)) for i in range(3)) != tuple(lam * x for x in v):
        return _fail(f"{etag}.axis", f"{v} is not an eigenvector of E for det E / d^2 = {lam}")
    if evaluate(sup, witness) != evaluate(sub, v):
        return _fail(f"{etag}.base_witness", f"witness value differs from the value at axis {v}")
    return Verdict(True)


def check(cert) -> Verdict:
    """Re-verify every claim of a certificate from raw integers.

    Accepts the bytes/str emitted by emit(), with or without the one
    trailing newline `prove --out` writes, or an already-parsed dict.
    Runs no transform search; cost is matrix arithmetic plus d^3 coset
    scans and one array product per listed matrix, with every modulus at
    most MAX_MODULUS.
    """
    if isinstance(cert, (bytes, str)):
        try:
            raw = cert.encode() if isinstance(cert, str) else cert
            cert = json.loads(raw)
            canonical = encode(cert)
        except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8
            return _fail("schema", f"not valid JSON: {exc}")
        # one byte form per proof: no BOM, repeated key or extra whitespace
        if raw.removesuffix(b"\n") != canonical:
            return _fail("canonical", "not the bytes encode() writes for this certificate")
    if not isinstance(cert, dict):
        return _fail("schema", "certificate must be a JSON object")
    if unknown := _unknown_keys(cert, "root"):
        return _fail("schema", unknown)
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
                if unknown := _unknown_keys(record, "subform"):
                    raise ValueError(unknown)
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
