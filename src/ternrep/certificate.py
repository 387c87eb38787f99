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
prover.  It shares no residue arithmetic with the prover either.  Its
scans are its own, one over the q^3 cosets mod each prime power q of the
modulus, combined by the Chinese remainder theorem: a residue mod L is
attained when it is attained mod each q, a class mod d is the product of
its parts mod each q, and a transform makes a coset integral mod d when it
makes each of its parts integral mod q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _mat
from .forms import QuadForm, doubled_gram, evaluate, is_positive_definite

CERT_VERSION = 3
# the largest lcm of cover moduli; it bounds every q^3 scan below to ~8 MB
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


def _prime_powers(n):
    """The prime-power factors of n by ascending prime, e.g. 144 -> [16, 9]."""
    out = []
    for p in range(2, n + 1):
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append(q)
    return out


def _values_mod(form, L):
    """The L^3 grid of form(v) mod L over v in [0, L)^3, index order (x, y, z), uint8.

    It is ((s x + r y + c z) z + a x^2 + t x y + b y^2) mod L with each of
    the three parts reduced mod L first, so every entry stays below
    2 L^2 + L < 2^16 for L <= 144 (the limits clause) in one uint16 grid.
    """
    a, b, c, r, s, t = (k % L for k in form.coefficients)
    v = np.arange(L)
    x, y, z = v[:, None, None], v[None, :, None], v[None, None, :]
    grid = ((s * x + r * y) % L).astype(np.uint16) + (c * z % L).astype(np.uint16)
    grid *= z.astype(np.uint16)
    grid += ((a * x * x + t * x * y + b * y * y) % L).astype(np.uint16)
    grid %= L
    return grid.astype(np.uint8)


def _grid(grids, form, q):
    """The q^3 grid of _values_mod, made once per prime power q and kept in grids."""
    if q not in grids:
        grids[q] = _values_mod(form, q)
    return grids[q]


def _attained(form, L, grids):
    """Mask of the residues mod L that form attains: those it attains mod each q."""
    attained = np.ones(L, dtype=bool)
    for q in _prime_powers(L):
        hit = np.zeros(q, dtype=bool)
        hit[_grid(grids, form, q).ravel()] = True
        attained &= hit[np.arange(L) % q]
    return attained


def _class_parts(form, d, a, grids):
    """[(q, U_q)] for the prime powers q of d, U_q the (n, 3) rows of the cosets
    u mod q with form(u) = a (mod q), lexicographic; a coset mod d is one row of each."""
    return [(q, np.argwhere(_grid(grids, form, q) == a % q)) for q in _prime_powers(d)]


def _cosets(parts, d, mask):
    """The (n, 3) cosets mod d of the True cells of a mask over the parts,
    rebuilt with the CRT idempotents e_q = 1 (mod q), 0 (mod d / q)."""
    cells = np.argwhere(mask)  # unlike nonzero, gives one empty row for d = 1's 0-d mask
    cosets = np.zeros((len(cells), 3), dtype=np.int64)
    for (q, U), i in zip(parts, cells.T):
        cosets += (d // q) * pow(d // q, -1, q) * U[i]
    return cosets % d


_STEP_CELLS = 2**16  # entries per step of _integral: ~512 KB of tables at any length


def _integral(parts, matrices):
    """Bool mask over the cells of the parts: the cosets that some matrix makes
    integral mod each q.  Per step of k matrices (cells x k and 3 |U_q| x k
    within _STEP_CELLS, or k = 1), one int64 product U_q [M_1^t ... M_k^t] per
    part, each M reduced mod q in plain ints first so it stays below 3 q^2."""
    if not parts:  # d = 1: one cell, made integral by any matrix
        return np.array(len(matrices) > 0)
    sizes = [len(U) for _, U in parts]
    out = np.zeros(sizes, dtype=bool)
    step = max(1, _STEP_CELLS // max(1, out.size, 3 * max(sizes)))
    for start in range(0, len(matrices), step):
        chunk = matrices[start:start + step]
        # oks[i][c, t]: M_t makes cell c of part i integral mod q
        oks = [~(U @ np.array([[x % q for x in row] for M in chunk for row in M]).T % q)
               .reshape(len(U), len(chunk), 3).any(axis=2) for q, U in parts]
        acc = oks[0]
        for ok in oks[1:-1]:  # the leading parts' cells, then one matmul
            acc = (acc[:, None, :] & ok[None, :, :]).reshape(-1, len(chunk))
        out |= (acc @ oks[-1].T if len(oks) > 1 else acc.any(axis=1)).reshape(sizes)
    return out


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
    grids = {}
    attained = _attained(sub, modulus, grids)
    for d, a in class_ids:
        attained[a::d] = False
    if attained.any():
        return _fail(f"{tag}.cover", f"attainable residue {attained.argmax()} mod {modulus} uncovered")
    for rec, (d, a) in zip(classes, class_ids):
        ctag = f"{tag}.class({d},{a})"
        try:
            transforms = [_as_matrix(T) for T in _as_list(rec["transforms"])]
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(f"{ctag}.schema", str(exc))
        scaled = _mat.scalar_mul(d * d, G_sub)
        for i, T in enumerate(transforms):
            if _mat.congruence(T, G_sup) != scaled:
                return _fail(f"{ctag}.transform_identity", f"table entry {i}")
        # one cell per coset of the class over the product of its parts; a
        # coset is good when some listed transform makes it integral, and
        # the rest are the bad cosets the escape record has to handle
        parts = _class_parts(sub, d, a, grids)
        bad = ~_integral(parts, transforms)
        escape = rec.get("escape")
        if bad.any() or escape is not None:
            verdict = _check_escape(ctag, sub, sup, d, escape, parts, bad)
            if not verdict.ok:
                return verdict
    return Verdict(True)


def _check_escape(ctag, sub, sup, d, escape, parts, bad):
    etag = ctag.replace(".class", ".escape")
    if escape is None:
        return _fail(f"{etag}.missing", f"{np.count_nonzero(bad)} cosets no listed transform makes integral")
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
    stuck = bad & ~_integral(parts, [E])
    if stuck.any():
        first = min(map(tuple, _cosets(parts, d, stuck).tolist()))  # lexicographically
        return _fail(f"{etag}.integrality", f"coset {first}")
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
    Runs no transform search; cost is matrix arithmetic plus one q^3
    value grid per prime power q of a modulus, and per class one array
    product per part for each step of its listed matrices, with every
    modulus at most MAX_MODULUS.
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
