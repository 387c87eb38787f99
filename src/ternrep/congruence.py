"""Residue-vector analysis modulo d.

For a form g and a residue class a mod d, residue_vectors lists every
coset v in (Z/dZ)^3 with g(v) = a (mod d), from one d^3 grid of the
values of g mod d.  The proofs read q^3 grids only, q | d (see below).

A coset is *good* for a transform set R = {T : T^t M_f T = d^2 M_g} when
some T in R maps it to an integral vector, (1/d) v T^t in Z^3; that vector
then represents the same value under f.  When every coset of a class is
good, each value of g in the progression { d n + a } is a value of f.

precedes decides this for all cosets at once from kernel bitsets.
(1/d) v T^t is integral iff T v^t = 0 (mod d), that is iff v lies in the
kernel of T mod d.  By the Chinese remainder theorem (Z/dZ)^3 is the
product of the (Z/qZ)^3 over the prime powers q of d: a coset v is the
tuple of its parts v mod q, it lies in the class iff each part lies in
(q, a mod q), and T v^t = 0 (mod d) iff T v^t = 0 (mod q) for every q.
So the class is the product of its parts, and each q gets one table per
transform set, shared by every class of modulus d: for each coset u mod
q, a bitset whose bit t says T_t u^t = 0 (mod q), kept as its few
distinct rows and a label per u (_kernel_classes).  Two exact symmetries
cut the work of building it to about a quarter.  For a unit c mod q,
T (c u) = c T u, so u and c u have the same row: only the normal forms
(0 or a power of p, y, z) are scanned (_normal_forms), 1,280 of the 4,096
cosets mod 16.  The set is closed under T -> -T in reverse order
(TransformSet), and ker(-T) = ker T: only its first half is scanned, and
each distinct row takes the mirror of its half (_kernel_bits).  Cosets
with equal labels mod every q have the same integral transforms, so
_class_groups, the one path from a class to transforms, takes one group
per tuple of labels of its parts and ANDs one row per q.  Bit t is bit
t % 8 of byte t // 8, so a group's lowest set bit is the first integral
transform in the set's order, the witness of its cosets.  A certificate
lists a greedy cover over the good groups (GoodVectorReport.cover), and
prover.build_escape keeps the scaled automorphisms that make integral
each part of a bad group (_integral_on_bad).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from operator import index

import numpy as np

from .forms import QuadForm, Vector3
from .isometry import TransformSet, find_transforms


@dataclass(frozen=True, order=True)
class ResidueClass:
    """The arithmetic progression {d n + a : n >= 0}."""

    d: int
    a: int

    def __post_init__(self):
        object.__setattr__(self, "d", index(self.d))
        object.__setattr__(self, "a", index(self.a))
        if self.d < 1:
            raise ValueError("modulus d must be a positive integer")
        if not 0 <= self.a < self.d:
            raise ValueError(f"residue must satisfy 0 <= a < d, got ({self.d}, {self.a})")

    def __str__(self):
        return f"{self.d}n+{self.a}"


# grids are d^3 uint16 entries, 8 KB at q = 16: the proofs ask only for
# prime powers, and only the coset lists (residue_vectors, a report's
# cosets) for a composite d, 6 MB at the largest certificate modulus, 144
@lru_cache(maxsize=16)
def _value_grid(g: QuadForm, d: int):
    """d^3 grid of g(v) mod d, index order (x, y, z)."""
    # g(v) mod d depends on the coefficients mod d only; every term is
    # reduced mod d on a 1-D or 2-D range before the d^3 sum, so no product
    # leaves int64 however large the coefficients are
    a, b, c, r, s, t = (k % d for k in g.coefficients)
    u = np.arange(d, dtype=np.int64)
    xy = ((a * u * u)[:, None] + (b * u * u)[None, :] + t * np.outer(u, u)) % d
    xz = ((c * u * u)[None, :] + s * np.outer(u, u)) % d
    yz = (r * np.outer(u, u)) % d
    # each 2-D term is below d, so the uint16 sum below 3d stays in range
    # for any d whose grid fits in memory
    grid = xy.astype(np.uint16)[:, :, None] + xz.astype(np.uint16)[:, None, :]
    grid += yz.astype(np.uint16)[None, :, :]
    grid %= d
    grid.setflags(write=False)
    return grid


def _residue_array(g: QuadForm, cls: ResidueClass):
    V = np.argwhere(_value_grid(g, cls.d) == cls.a).astype(np.int64)
    V.setflags(write=False)
    return V


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
        hit[_value_grid(g, q).ravel()] = True
        rho = np.arange(m * q)
        attained = attained[rho % m] & hit[rho % q]
        m *= q
    return tuple(np.flatnonzero(attained).tolist())


@dataclass(frozen=True)
class GoodVectorReport:
    """Partition of the cosets of a residue class into good and bad, kept as
    the class's groups (_class_groups): a group with no bit set in acc is
    bad.  The coset views are built when read: cosets, the (n, 3) int64
    cosets in lexicographic order; witness[i], the first transform that makes
    cosets[i] integral, or -1; good, the (Vector3, index) pairs; bad."""

    f: QuadForm
    g: QuadForm
    cls: ResidueClass
    transforms: TransformSet
    parts: tuple = field(compare=False, hash=False, repr=False)
    weight: np.ndarray = field(compare=False, hash=False, repr=False)
    acc: np.ndarray = field(compare=False, hash=False, repr=False)

    def _table(self) -> np.ndarray:
        return np.unpackbits(self.acc, axis=1, count=len(self.transforms), bitorder="little").astype(bool)

    @cached_property
    def cosets(self) -> np.ndarray:
        return _residue_array(self.g, self.cls)

    @cached_property
    def witness(self) -> np.ndarray:
        V = self.cosets
        group = np.zeros(len(V), dtype=np.int64)
        for (q, _, present), (_, label, _) in zip(self.parts, _kernel_classes(self.transforms)):
            lab = label[((V[:, 0] % q) * q + V[:, 1] % q) * q + V[:, 2] % q]
            group = group * len(present) + np.searchsorted(present, lab)
        # the number of leading zeros of each group's bits: len(transforms) if none is set
        first = (~np.logical_or.accumulate(self._table(), axis=1)).sum(axis=1)
        witness = np.where(first < len(self.transforms), first, -1)[group]
        witness.setflags(write=False)
        return witness

    @cached_property
    def good(self) -> tuple:
        found = self.witness >= 0
        return tuple(zip(map(Vector3._make, self.cosets[found].tolist()),
                         self.witness[found].tolist()))

    @cached_property
    def bad(self) -> tuple:
        return tuple(map(Vector3._make, self.cosets[self.witness < 0].tolist()))

    @property
    def all_good(self) -> bool:
        return bool(self.acc.any(axis=1).all())

    @cached_property
    def cover(self) -> np.ndarray:
        """Indices into `transforms`, in pick order, of a greedy cover of the
        good cosets: each pick makes the most still-uncovered good cosets
        integral, the lowest index on ties, so each covers some good coset
        that no earlier pick covers.  It runs over the good groups, weighted
        by their coset counts; each pick covers an open one, so it ends."""
        table = self._table()
        picks, uncovered = [], table.any(axis=1)
        while uncovered.any():
            t = int((self.weight[uncovered] @ table[uncovered]).argmax())
            picks.append(t)
            uncovered &= ~table[:, t]
        return np.array(picks, dtype=np.int64)

    def __repr__(self):
        good = int(self.weight[self.acc.any(axis=1)].sum())
        return (f"GoodVectorReport(cls=({self.cls.d},{self.cls.a}), "
                f"good={good}, bad={int(self.weight.sum()) - good})")


# transforms per step of _kernel_bits: a step's bool array has (k + 1) q^2
# rows of chunk cells, 80 KB at q = 16 (k = 4), whatever the size of the set
_KERNEL_CHUNK = 64


# q^3 indices per table in the narrowest unsigned type, 8 KB at q = 16 but
# 8 MB at q = 128, which precedes accepts: cached as tightly as _value_grid
@lru_cache(maxsize=16)
def _normal_forms(q: int) -> tuple:
    """(xs, nf) for a prime power q = p^k: the normal forms of the cosets mod q
    under the units, and nf[x q^2 + y q + z], the index of the normal form of
    (x, y, z).

    A coset with x = p^j w, w a unit, is w (p^j, c y, c z) with c = 1/w mod q;
    so the normal forms are the (k + 1) q^2 cosets (X, y, z), X in xs = (0, 1,
    p, ..., p^(k-1)), with index i q^2 + y q + z for X = xs[i].  For any T, T u
    = 0 (mod q) iff T (c u) = 0: a coset and its normal form have one kernel
    row.
    """
    p = next(m for m in range(2, q + 1) if q % m == 0)
    xs = [0, 1]
    while xs[-1] * p < q:
        xs.append(xs[-1] * p)
    # x = xs[xi[x]] w with w = 1 / c[x] a unit (w = c = 1 at x = 0)
    xi, c = np.zeros(q, dtype=np.int64), np.ones(q, dtype=np.int64)
    for x in range(1, q):
        xi[x] = max(i for i in range(1, len(xs)) if x % xs[i] == 0)
        c[x] = pow(x // xs[xi[x]], -1, q)
    cy = np.outer(c, np.arange(q)) % q  # cy[x, y] = c y mod q, q^2 entries
    dtype = np.min_scalar_type(len(xs) * q * q - 1)
    nf = ((xi[:, None] * q + cy) * q).astype(dtype)[:, :, None] + cy.astype(dtype)[:, None, :]
    nf = nf.ravel()
    nf.setflags(write=False)
    return tuple(xs), nf


def _kernel_bits(transforms: TransformSet) -> tuple:
    """((q, bits_q) for each prime power q of d), the kernels of the first half
    of the set on the normal forms mod q (_normal_forms).

    bits_q is a ((k + 1) q^2, max(1, ceil(|T| / 16))) uint8 array: bit t
    (little-endian within each byte) of row i q^2 + y q + z is set iff
    T_t (xs[i], y, z)^t = 0 (mod q), for t < |T| / 2; the set is closed
    under negation and sorted, so T_(|T|-1-t) = -T_t has the same kernel
    (TransformSet).  It is found meet-in-the-middle: X T_0 + y T_1 = -z T_2
    (mod q) for the columns T_j of T, comparing (k + 1) q codes with q codes
    per transform, in the narrowest unsigned type that holds q^3: 16 bits up
    to q = 40.
    """
    half = transforms.matrices[:len(transforms) // 2]
    out = []
    for q in _prime_powers(transforms.d):
        xs, _ = _normal_forms(q)
        dtype = np.min_scalar_type(q**3 - 1)  # also holds the digits' 2 (q - 1)^2
        u = np.arange(q, dtype=dtype)[:, None, None]
        X = np.array(xs, dtype=dtype)[:, None, None, None]
        cols = (half % q).astype(dtype).transpose(2, 1, 0)  # cols[j, i, t] = (T_t)_ij mod q
        # codes of X T_0 + y T_1, shape (k + 1, q, |T| / 2), and of -z T_2, shape (q, |T| / 2)
        digits = (X * cols[0] + u * cols[1]) % q
        pair = (digits[:, :, 0] * q + digits[:, :, 1]) * q + digits[:, :, 2]
        digits = (q - u) * cols[2] % q
        single = (digits[:, 0] * q + digits[:, 1]) * q + digits[:, 2]
        # at least one byte per row, so that an empty set gets one empty row
        bits = np.zeros((len(xs) * q * q, max(1, -(-len(half) // 8))), dtype=np.uint8)
        for start in range(0, len(half), _KERNEL_CHUNK):
            stop = min(start + _KERNEL_CHUNK, len(half))
            # the chunk's bits start `lead` bits into a byte: pack behind `lead`
            # zero columns and OR the bytes in, so any chunk size lines up
            lead = start % 8
            hits = np.zeros((len(xs), q, q, lead + stop - start), dtype=bool)
            np.equal(pair[:, :, None, start:stop], single[None, None, :, start:stop], out=hits[..., lead:])
            packed = np.packbits(hits.reshape(len(bits), -1), axis=1, bitorder="little")
            bits[:, start // 8:start // 8 + packed.shape[1]] |= packed
        out.append((q, bits))
    return tuple(out)


# a pair proof works at no more than 16 moduli per direction (the divisors
# of an lcm <= MAX_MODULUS = 144), each with one transform set and one of
# scaled automorphisms: at most 4 x 16 = 64 sets, all cached for the escape
# scans and coset views that reread them.  With the narrowest labels, the
# 18 sets of the S8 proof hold 0.02 MB, the 12 of the failed S5 search 0.03 MB
@lru_cache(maxsize=64)
def _kernel_classes(transforms: TransformSet) -> tuple:
    """((q, label_q, rows_q) for each prime power q of d): rows_q holds the
    distinct kernel rows of the set mod q, bit t set iff T_t u = 0 (mod q),
    packed as in _kernel_bits, and label_q[x q^2 + y q + z] is the index in
    rows_q of the row of (x, y, z).  Rows are grouped on the half-set bits of
    the normal forms (_kernel_bits), then each distinct row takes the mirror
    of its half for T_(|T|-1-t) = -T_t, and each coset the label of its
    normal form.  At S6, d = 48, the 4,096 cosets mod 16 have 79 distinct
    rows."""
    out = []
    for q, bits in _kernel_bits(transforms):
        # equal rows meet side by side in a sort of their raw bytes; np.unique
        # would import numpy.ma on its first call
        keys = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        order = np.argsort(keys)
        new = np.concatenate(([True], keys[order[1:]] != keys[order[:-1]]))
        label = np.empty(len(keys), dtype=np.int64)
        label[order] = np.cumsum(new) - 1
        first = order[new]
        half = np.unpackbits(bits[first], axis=1, count=len(transforms) // 2, bitorder="little")
        rows = np.packbits(np.concatenate((half, half[:, ::-1]), axis=1), axis=1, bitorder="little")
        label = label.astype(np.min_scalar_type(len(first)))[_normal_forms(q)[1]]
        label.setflags(write=False)
        rows.setflags(write=False)
        out.append((q, label, rows))
    return tuple(out)


def _class_groups(transforms: TransformSet, g: QuadForm, cls: ResidueClass) -> tuple:
    """(parts, weight, acc), the class (d, a) as the product of its parts:
    parts[i] = (q, cells, present) for the i-th prime power q of d, cells the
    indices x q^2 + y q + z of the u mod q with g(u) = a (mod q) and present
    their distinct labels (_kernel_classes), both ascending.  Group k takes
    one present label per q, the last q fastest; weight[k] is the product of
    their counts, acc[k] the AND of their rows.  At d = 1: one group, all set."""
    width = -(-len(transforms) // 8)
    parts, weight, acc = [], np.ones(1, dtype=np.int64), np.full((1, width), 0xFF, dtype=np.uint8)
    for q, label, rows in _kernel_classes(transforms):
        cells = np.flatnonzero(_value_grid(g, q).ravel() == cls.a % q)
        counts = np.bincount(label[cells], minlength=len(rows))
        present = np.flatnonzero(counts)
        weight = np.outer(weight, counts[present]).ravel()
        acc = (acc[:, None, :] & rows[present][None, :, :]).reshape(len(acc) * len(present), width)
        parts.append((q, cells, present))
    weight.setflags(write=False)
    acc.setflags(write=False)
    return tuple(parts), weight, acc


def _integral_on_bad(transforms: TransformSet, report: GoodVectorReport) -> np.ndarray:
    """Bit t, packed as in _kernel_bits, says T_t of a set at the report's
    modulus makes every bad coset integral: each is a tuple of cosets mod q
    whose labels occur in a bad group, so T_t must make all of those so."""
    bad = ~report.acc.any(axis=1).reshape([len(present) for _, _, present in report.parts])
    out = np.full(-(-len(transforms) // 8), 0xFF, dtype=np.uint8)
    tables = zip(report.parts, _kernel_classes(report.transforms), _kernel_classes(transforms))
    for i, ((q, cells, present), (_, label, _), (_, t_label, t_rows)) in enumerate(tables):
        stuck = bad.any(axis=tuple(j for j in range(bad.ndim) if j != i))
        used = np.bincount(t_label[cells[stuck[np.searchsorted(present, label[cells])]]], minlength=len(t_rows))
        out &= np.bitwise_and.reduce(t_rows[used > 0], axis=0)
    return out


def precedes(f: QuadForm, g: QuadForm, cls: ResidueClass) -> GoodVectorReport:
    """Split the cosets of the class by existence of an integral transport.

    report.all_good says whether every coset is good; then every value of
    g congruent to a mod d is also a value of f.
    """
    transforms = find_transforms(f, g, cls.d)
    return GoodVectorReport(f, g, cls, transforms, *_class_groups(transforms, g, cls))


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
    L = lcm(*(cls.d for cls in classes))
    attain = attainable_residues(g, L)
    uncovered = tuple(
        rho for rho in attain
        if not any(rho % cls.d == cls.a for cls in classes)
    )
    return CoverReport(not uncovered, L, attain, uncovered)
