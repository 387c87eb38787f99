"""Residue-vector analysis modulo d.

For a form g and a residue class a mod d, residue_vectors finds every
coset v in (Z/dZ)^3 with g(v) = a (mod d); the congruence is evaluated on
the doubled Gram matrix, v (2M_g) v^t = 2a (mod 2d), to stay in integers.

A coset is *good* for a transform set R = {T : T^t M_f T = d^2 M_g} when
some T in R maps it to an integral vector, (1/d) v T^t in Z^3; that vector
then represents the same value under f.  When every coset of a class is
good, each value of g in the progression { d n + a } is a value of f.

classify_good decides this for all cosets at once from kernel bitsets.
(1/d) v T^t is integral iff T v^t = 0 (mod d), that is iff v lies in the
kernel of T mod d.  By the Chinese remainder theorem (Z/dZ)^3 is the
product of the (Z/qZ)^3 over the prime powers q of d, and T v^t = 0
(mod d) iff T v^t = 0 (mod q) for every q.  So each q gets one table,
built once per transform set and shared by every class of modulus d: for
each of the q^3 cosets u mod q, a bitset whose bit t says T_t u^t = 0
(mod q).  A coset's bitset mod d is the AND of its rows mod each q.  Bit
t of a bitset is bit t % 8 of byte t // 8, so the lowest set bit is the
first integral transform in the set's order, the witness the certificate
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .forms import QuadForm, Vector3
from .isometry import TransformSet, find_transforms


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


# grids are d^3 uint16 entries: 6 MB at the largest class modulus a
# certificate may use (144), 0.2 MB at the largest the search scans (48);
# attainable_residues and the kernel bitsets ask only for prime powers
@lru_cache(maxsize=16)
def _value_grid(g: QuadForm, d: int):
    """d^3 grid of 2*g(v) mod 2d, index order (x, y, z)."""
    # 2*g(v) mod 2d depends on the coefficients mod d only; every term is
    # reduced mod d on a 1-D or 2-D range before the d^3 sum, so no product
    # leaves int64 however large the coefficients are
    a, b, c, r, s, t = (k % d for k in g.coefficients)
    u = np.arange(d, dtype=np.int64)
    xy = ((a * u * u)[:, None] + (b * u * u)[None, :] + t * np.outer(u, u)) % d
    xz = ((c * u * u)[None, :] + s * np.outer(u, u)) % d
    yz = (r * np.outer(u, u)) % d
    # each 2-D term is below d, so the uint16 sum below 3d and the final
    # 2 * (sum mod d) < 2d stay in range for any d whose grid fits in memory
    grid = xy.astype(np.uint16)[:, :, None] + xz.astype(np.uint16)[:, None, :]
    grid += yz.astype(np.uint16)[None, :, :]
    grid %= d
    grid *= 2
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


# transforms per step of _kernel_bits: a step holds (q^2, chunk, 3) int64
# codes and a (q^3, chunk) bool array, under 1 MB at q = 16, whatever the
# size of the set
_KERNEL_CHUNK = 64

# cosets per step of classify_good: a step holds a few (block, |T| / 8)
# byte arrays, 0.4 MB each for the 720 transforms of S6 at 48
_COSET_BLOCK = 4096

# _LOW_BIT[b] is the index of the lowest set bit of the byte b > 0
_LOW_BIT = np.array([(b & -b).bit_length() - 1 for b in range(256)], dtype=np.int64)


@lru_cache(maxsize=16)
def _kernel_bits(transforms: TransformSet) -> tuple:
    """((q, bits_q) for each prime power q of d), the kernels of the set mod q.

    bits_q is a (q^3, ceil(|T| / 8)) uint8 array: bit t (little-endian
    within each byte) of row x q^2 + y q + z is set iff T_t (x, y, z)^t = 0
    (mod q).  It is found meet-in-the-middle: x T_0 + y T_1 = -z T_2 (mod q)
    for the columns T_j of T, comparing q^2 codes with q codes.
    """
    mats = np.asarray(transforms.matrices, dtype=np.int64).reshape(-1, 3, 3)
    n = len(mats)
    out = []
    for q in _prime_powers(transforms.d):
        u = np.arange(q, dtype=np.int64)
        place = np.array([q * q, q, 1], dtype=np.int64)
        bits = np.zeros((q**3, -(-n // 8)), dtype=np.uint8)
        for start in range(0, n, _KERNEL_CHUNK):
            cols = mats[start:start + _KERNEL_CHUNK].transpose(2, 0, 1) % q  # cols[j, t] = T_t e_j
            # codes of x T_0 + y T_1, shape (q, q, chunk), and of -z T_2, shape (q, chunk)
            pair = ((u[:, None, None, None] * cols[0] + u[None, :, None, None] * cols[1]) % q) @ place
            single = ((-u[:, None, None] * cols[2]) % q) @ place
            # the chunk's bits start `lead` bits into a byte: pack behind `lead`
            # zero columns and OR the bytes in, so any chunk size lines up
            lead = start % 8
            hits = np.zeros((q, q, q, lead + len(cols[0])), dtype=bool)
            np.equal(pair[:, :, None, :], single[None, None, :, :], out=hits[..., lead:])
            packed = np.packbits(hits.reshape(q**3, -1), axis=1, bitorder="little")
            bits[:, start // 8:start // 8 + packed.shape[1]] |= packed
        bits.setflags(write=False)
        out.append((q, bits))
    return tuple(out)


def classify_good(f: QuadForm, g: QuadForm, cls: ResidueClass,
                  transforms: TransformSet) -> GoodVectorReport:
    """Split the cosets of the class by existence of an integral transport.

    `transforms` must be the set for (f, g, cls.d).  The witness of a
    coset is the lowest set bit of the AND of its kernel bitsets (module
    docstring).
    """
    if (transforms.f, transforms.g, transforms.d) != (f, g, cls.d):
        raise ValueError("transform set does not match (f, g, d)")
    V = _residue_array(g, cls)
    if not len(transforms) or not len(V):
        witness = np.full(len(V), -1, dtype=np.int64)
    elif cls.d == 1:
        # no prime power: every T sends the one coset 0 to 0
        witness = np.zeros(len(V), dtype=np.int64)
    else:
        kernels = _kernel_bits(transforms)
        witness = np.empty(len(V), dtype=np.int64)
        for lo in range(0, len(V), _COSET_BLOCK):
            part = V[lo:lo + _COSET_BLOCK]
            acc = None  # acc[i]: the kernel bits of coset i mod every q, ANDed
            for q, bits in kernels:
                row = bits[((part[:, 0] % q) * q + part[:, 1] % q) * q + part[:, 2] % q]
                acc = row if acc is None else np.bitwise_and(acc, row, out=acc)
            nonzero = acc != 0
            first = nonzero.argmax(axis=1)
            low = _LOW_BIT[acc[np.arange(len(part)), first]]
            witness[lo:lo + len(part)] = np.where(nonzero.any(axis=1), 8 * first + low, -1)
    V.setflags(write=False)
    witness.setflags(write=False)
    return GoodVectorReport(f, g, cls, transforms, V, witness)


def precedes(f: QuadForm, g: QuadForm, cls: ResidueClass) -> GoodVectorReport:
    """Decide whether every coset of the class is good (report.all_good).

    When it is, every value of g congruent to a mod d is also a value of
    f; the transform set is computed internally.
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
