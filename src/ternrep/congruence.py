"""Residue-vector analysis modulo d.

For a form g and a residue class a mod d, residue_vectors finds every
coset v in (Z/dZ)^3 with g(v) = a (mod d); the congruence is evaluated on
the doubled Gram matrix, v (2M_g) v^t = 2a (mod 2d), to stay in integers.

A coset is *good* for a transform set R = {T : T^t M_f T = d^2 M_g} when
some T in R maps it to an integral vector, (1/d) v T^t in Z^3; that vector
then represents the same value under f.  When every coset of a class is
good, each value of g in the progression { d n + a } is a value of f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .forms import QuadForm, Vector3
from .isometry import TransformSet, find_transforms


class IncompleteTransformSet(ValueError):
    """Raised when a good/bad classification is attempted with a truncated set."""


@dataclass(frozen=True, order=True)
class ResidueClass:
    """The arithmetic progression {d n + a : n >= 0}."""

    d: int
    a: int

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "a", int(self.a))
        if self.d < 1:
            raise ValueError("modulus d must be a positive integer")
        if not 0 <= self.a < self.d:
            raise ValueError(f"residue must satisfy 0 <= a < d, got ({self.d}, {self.a})")

    def __str__(self):
        return f"{self.d}n+{self.a}"


# grids are d^3 int64 entries: 0.9 MB at the largest class modulus the
# prover scans (48); attainable_residues asks only for prime powers
@lru_cache(maxsize=16)
def _value_grid(g: QuadForm, d: int):
    """d^3 grid of 2*g(v) mod 2d, index order (x, y, z)."""
    rng = np.arange(d, dtype=np.int64)
    X, Y, Z = np.meshgrid(rng, rng, rng, indexing="ij")
    # 2*g(v) mod 2d depends on the coefficients mod d only; reducing them
    # keeps every term within int64 however large the coefficients are
    a, b, c, r, s, t = (k % d for k in g.coefficients)
    vals = 2 * (a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y)
    grid = vals % (2 * d)
    grid.setflags(write=False)
    return grid


def _residue_array(g: QuadForm, cls: ResidueClass):
    grid = _value_grid(g, cls.d)
    return np.argwhere(grid == (2 * cls.a) % (2 * cls.d)).astype(np.int64)


def residue_vectors(g: QuadForm, cls: ResidueClass) -> list:
    """All cosets v in (Z/dZ)^3 with g(v) = a (mod d), lexicographic."""
    return [Vector3(*map(int, row)) for row in _residue_array(g, cls)]


def _prime_powers(n: int) -> list:
    """The prime-power factors of n, e.g. 144 -> [16, 9]."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def attainable_residues(g: QuadForm, modulus: int) -> tuple:
    """Residues mod `modulus` that g attains on (Z/modulus Z)^3.

    By the Chinese remainder theorem (Z/LZ)^3, L = modulus, is the product
    of the (Z/qZ)^3 over the prime powers q of L, so rho mod L is attained
    iff rho mod q is attained for every q: only q^3 grids are scanned.
    """
    attained = np.ones(1, dtype=bool)  # attained[rho] for rho mod m
    m = 1
    for q in _prime_powers(int(modulus)):
        hit = np.zeros(q, dtype=bool)
        hit[_value_grid(g, q).ravel() // 2] = True
        rho = np.arange(m * q)
        attained = attained[rho % m] & hit[rho % q]
        m *= q
    return tuple(np.flatnonzero(attained).tolist())


@dataclass(frozen=True)
class GoodVectorReport:
    """Partition of the cosets of a residue class into good and bad.

    cosets holds every coset of the class as an (n, 3) int64 array in
    lexicographic order; witness[i] is the index of the first transform
    in `transforms` whose image of cosets[i] is divisible by d, or -1
    when there is none (a bad coset).  The Python views are built from
    the arrays only when read: bad_array holds the bad rows, good the
    (Vector3, index) pairs and bad the bad cosets as Vector3, all in
    coset order.
    """

    f: QuadForm
    g: QuadForm
    cls: ResidueClass
    transforms: TransformSet
    cosets: np.ndarray = field(compare=False, hash=False, repr=False)
    witness: np.ndarray = field(compare=False, hash=False, repr=False)

    @cached_property
    def bad_array(self) -> np.ndarray:
        return self.cosets[self.witness < 0]

    @cached_property
    def good(self) -> tuple:
        found = self.witness >= 0
        return tuple(zip(map(Vector3._make, self.cosets[found].tolist()),
                         self.witness[found].tolist()))

    @cached_property
    def bad(self) -> tuple:
        return tuple(map(Vector3._make, self.bad_array.tolist()))

    @property
    def all_good(self) -> bool:
        return bool((self.witness >= 0).all())

    def __repr__(self):
        n_bad = int((self.witness < 0).sum())
        return (
            f"GoodVectorReport(cls=({self.cls.d},{self.cls.a}), "
            f"good={len(self.witness) - n_bad}, bad={n_bad})"
        )


# transforms tried per array product in classify_good: each product is a
# (cosets, block) int64 array, 1.3 MB for the 16,128 cosets of the largest
# class the catalog searches meet
_TRANSFORM_BLOCK = 10


def classify_good(f: QuadForm, g: QuadForm, cls: ResidueClass,
                  transforms: TransformSet) -> GoodVectorReport:
    """Split the cosets of the class by existence of an integral transport.

    `transforms` must be the complete set for (f, g, cls.d); with a
    truncated set a coset could be declared bad wrongly.
    """
    if not transforms.complete:
        raise IncompleteTransformSet("good/bad classification needs the complete transform set")
    if (transforms.f, transforms.g, transforms.d) != (f, g, cls.d):
        raise ValueError("transform set does not match (f, g, d)")
    V = _residue_array(g, cls)
    d = cls.d
    witness = np.full(len(V), -1, dtype=np.int64)
    pending = np.arange(len(V))
    mats = np.asarray(transforms.matrices, dtype=np.int64).reshape(-1, 3, 3)
    for start in range(0, len(mats), _TRANSFORM_BLOCK):
        if not len(pending):
            break
        block = mats[start:start + _TRANSFORM_BLOCK]
        rows = V[pending]
        # hits[i, j]: coset i is sent to an integral vector by T_j = block[j];
        # rows @ block[:, k].T holds component k of every image v T_j^t
        hits = (rows @ block[:, 0].T) % d == 0
        for k in (1, 2):
            hits &= (rows @ block[:, k].T) % d == 0
        found = hits.any(axis=1)
        witness[pending[found]] = start + hits[found].argmax(axis=1)
        pending = pending[~found]
    V.setflags(write=False)
    witness.setflags(write=False)
    return GoodVectorReport(f, g, cls, transforms, V, witness)


def precedes(f: QuadForm, g: QuadForm, cls: ResidueClass) -> GoodVectorReport:
    """Decide whether every coset of the class is good (report.all_good).

    When it is, every value of g congruent to a mod d is also a value of
    f; the transform set is computed internally and is complete.
    """
    return classify_good(f, g, cls, find_transforms(f, g, cls.d))


def transport(v, T, d: int):
    """(1/d) v T^t as an integer vector, or None if not divisible.

    For T in the transform set of (f, g, d), a defined transport w
    satisfies f(w) = g(v).
    """
    w = tuple(
        T[i][0] * v[0] + T[i][1] * v[1] + T[i][2] * v[2] for i in range(3)
    )
    if any(c % d for c in w):
        return None
    return Vector3(*(c // d for c in w))


@dataclass(frozen=True)
class CoverReport:
    """Result of checking residue classes against the attainable residues of g."""

    ok: bool
    modulus: int
    attainable: tuple
    uncovered: tuple

    def __bool__(self):
        return self.ok


def cover_check(g: QuadForm, classes) -> CoverReport:
    """Do the classes cover every residue g can attain?

    With L the lcm of all moduli, every residue mod L attainable by g on
    (Z/LZ)^3 must lie in some class.  Covering the attainable residues
    covers every value of g, so this is a sound (conservative) test.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("cover_check needs at least one residue class")
    L = 1
    for cls in classes:
        L = lcm(L, cls.d)
    attain = attainable_residues(g, L)
    uncovered = tuple(
        rho for rho in attain
        if not any(rho % cls.d == cls.a for cls in classes)
    )
    return CoverReport(not uncovered, L, attain, uncovered)
