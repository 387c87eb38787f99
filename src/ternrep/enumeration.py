"""Complete bounded enumeration of lattice points of a definite ternary form.

The region f(v) <= N is sliced along z.  For each slice the admissible
y and x ranges come from eliminating one variable at a time:

    min over x of f(x, y, z)  <=  N
    <=>  (4ab - t^2) y^2 + (4ar - 2st) z y + (4ac - s^2) z^2 <= 4 a N

and symmetrically for x.  All interval endpoints are computed with
integer square roots, widened by one, and every candidate is re-checked
exactly, so no lattice point can be missed.

Bulk work (marking a bitset, counting values) runs with numpy int64 on
row blocks: a slice's (y, x) rectangle is filled a few whole rows at a
time, at most _BLOCK_CELLS cells (256 KB; a row wider than that is a
block of its own), in one buffer reused for every block.  The block
stays in cache between the steps that fill it, and the memory used does
not grow with the widest slice.  The magnitudes involved are asserted
per slice to fit comfortably.

Only z >= 0 is scanned: v and -v take the same value, and negation maps
the slice at z to the slice at -z.

representations(f, n) solves each row (y, z) for x instead.  The
discriminant of f(x, y, z) = n as a quadratic in x is 4 a n minus the
slice polynomial above, so a row has a solution only where that int64
value is a perfect square; a float square root rounded to an integer
and squared back decides it exactly.  The rows of consecutive slices are
solved in chunks of at most _BLOCK_CELLS.  Their magnitudes are bounded
once, over the whole bounding box, before any work: a form or n beyond
int64 raises OverflowError at once.
"""

from __future__ import annotations

from functools import partial
from math import isqrt

import numpy as np

from .forms import (
    QuadForm,
    RepSet,
    Vector3,
    doubled_gram,
    require_positive_definite,
)
from . import _mat

_INT64_SAFE = 2**62
_BLOCK_CELLS = 1 << 15  # 256 KB of int64 per block


def _ceil_div(p, q):
    return -((-p) // q)


def _quad_interval(P, Q, R):
    """Integer range [lo, hi] containing {x : P x^2 + Q x + R <= 0}, P > 0.

    Widened by one on each side; callers re-check candidates exactly.
    Returns lo > hi when the interval is empty.
    """
    D = Q * Q - 4 * P * R
    if D < 0:
        return 1, 0
    iD = isqrt(D)
    lo = _ceil_div(-Q - iD, 2 * P) - 1
    hi = (-Q + iD) // (2 * P) + 1
    return lo, hi


def _capped_slices(form: QuadForm, bound: int, primitive: bool):
    """Yield (z, values) for each row block of each slice z >= 0 of f(v) <= bound.

    values holds f over a block of whole rows of the slice's (y, x)
    rectangle, flattened, with every value above bound - and with
    primitive=True every value of a vector whose coordinates share a
    factor - replaced by bound + 1.  A block has at most _BLOCK_CELLS
    cells, or one row when a row is wider than that.

    values is a view of one buffer that the next step of the generator
    overwrites: use it before asking for the next block.
    """
    require_positive_definite(form)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    a, b, c, r, s, t = form.coefficients
    beta = 4 * a * b - t * t
    gy, dy = 4 * a * r - 2 * s * t, 4 * a * c - s * s
    gx, dx = 4 * b * s - 2 * r * t, 4 * b * c - r * r
    z_max = isqrt((2 * bound * beta) // _mat.det(doubled_gram(form))) + 1
    cap = bound + 1
    buf = np.empty(0, dtype=np.int64)
    for z in range(z_max + 1):
        ylo, yhi = _quad_interval(beta, gy * z, dy * z * z - 4 * a * bound)
        if ylo > yhi:
            continue
        xlo, xhi = _quad_interval(beta, gx * z, dx * z * z - 4 * b * bound)
        if xlo > xhi:
            continue
        xm = max(abs(xlo), abs(xhi))
        ym = max(abs(ylo), abs(yhi))
        worst = (
            a * xm * xm + b * ym * ym + c * z * z
            + abs(r) * ym * z + abs(s) * xm * z + abs(t) * xm * ym
        )
        if worst >= _INT64_SAFE:
            raise OverflowError("slice values would not fit in int64")
        ys = np.arange(ylo, yhi + 1, dtype=np.int64)
        xs = np.arange(xlo, xhi + 1, dtype=np.int64)
        qy = b * ys * ys + (r * z) * ys + (c * z * z)
        ly = t * ys + (s * z)
        ax2 = a * xs * xs
        if primitive:
            gyz = np.gcd(ys, z)
        width = len(xs)
        rows = max(1, _BLOCK_CELLS // width)
        if len(buf) < rows * width:
            buf = np.empty(rows * width, dtype=np.int64)
        for i in range(0, len(ys), rows):
            n = min(rows, len(ys) - i)
            block = buf[: n * width].reshape(n, width)
            np.multiply.outer(ly[i : i + n], xs, out=block)
            block += ax2
            block += qy[i : i + n, None]
            np.minimum(block, cap, out=block)
            if primitive:
                common = np.gcd(gyz[i : i + n, None], xs)
                block[common != 1] = cap
            yield z, block.ravel()


# (form, primitive) -> (bound, read-only bool mask of length bound + 1)
_mask_cache: dict = {}


def represented_mask(form: QuadForm, bound: int, primitive: bool = False) -> np.ndarray:
    """Boolean mask m with m[n] = True iff n <= bound is represented.

    With primitive=True only vectors with coprime coordinates count.
    Results are cached per form; the returned array is read-only.
    """
    bound = int(bound)
    key = (form, primitive)
    hit = _mask_cache.get(key)
    if hit is not None and hit[0] >= bound:
        return hit[1][: bound + 1]
    seen = np.zeros(bound + 2, dtype=bool)  # slot bound+1 absorbs clipped values
    for _, values in _capped_slices(form, bound, primitive):
        seen[values] = True
    mask = seen[: bound + 1]
    mask.setflags(write=False)
    if hit is None or hit[0] < bound:
        _mask_cache[key] = (bound, mask)
    return mask


def clear_cache() -> None:
    _mask_cache.clear()


def represented_set(form: QuadForm, bound: int, primitive: bool = False) -> RepSet:
    """All represented integers in [0, bound] as a RepSet."""
    mask = represented_mask(form, bound, primitive=primitive)
    return RepSet(bound, np.flatnonzero(mask))


def _solve_rows(form: QuadForm, n: int, chunk) -> np.ndarray:
    """The (x, y, z) with f = n on the rows of a chunk, as a (3, k) int64 array.

    chunk lists (z, ylo, width) per slice: the rows (y, z) for y in
    [ylo, ylo + width).  Values fit in int64 by the caller's check.
    """
    a, b, c, r, s, t = form.coefficients
    beta, gy, dy = 4 * a * b - t * t, 4 * a * r - 2 * s * t, 4 * a * c - s * s
    zs, ylos, widths = np.array(chunk, dtype=np.int64).T
    z = np.repeat(zs, widths)
    starts = np.cumsum(widths) - widths
    y = np.arange(len(z), dtype=np.int64) + np.repeat(ylos - starts, widths)
    # B^2 - 4aC = 4an - (beta y^2 + gy y z + dy z^2), the slice polynomial
    D = np.repeat(4 * a * n - dy * zs * zs, widths) - y * (beta * y + gy * z)
    k = np.rint(np.sqrt(np.maximum(D, 0))).astype(np.int64)
    rows = np.flatnonzero(k * k == D)
    y, z, k = y[rows], z[rows], k[rows]
    B = t * y + s * z
    twice = k != 0  # a double root counts once
    num = np.concatenate((k - B, -k[twice] - B[twice]))
    y = np.concatenate((y, y[twice]))
    z = np.concatenate((z, z[twice]))
    whole = num % (2 * a) == 0
    return np.stack((num[whole] // (2 * a), y[whole], z[whole]))


_vector3 = partial(tuple.__new__, Vector3)


def representations(form: QuadForm, n: int) -> list:
    """The complete set {v : f(v) = n}, in lexicographic order.

    Each row (y, z) of the region f(v) <= n is solved for x: with
    B = t y + s z and C = b y^2 + c z^2 + r y z - n, a x^2 + B x + C = 0
    has an integer root iff D = B^2 - 4aC is a perfect square k^2 and
    2a divides -B + k or -B - k.  The rows are those of the slices
    z >= 0, each slice's y-interval exact from _quad_interval; -v gives
    the slices z < 0.  Consecutive slices are solved together by numpy in
    chunks of at most _BLOCK_CELLS rows (a wider slice is a chunk of its
    own), so the working arrays do not grow with n.  k is the float64
    square root of D rounded to an integer and is kept only if k^2 == D
    exactly: for D < 2^62 the float root of a perfect square k^2 lies
    within 2^-20 of k, so no square is missed, and the exact test rejects
    every other D.

    Raises OverflowError before any row is solved when some value of the
    int64 computation could reach 2^62.
    """
    require_positive_definite(form)
    n = int(n)
    if n < 0:
        return []
    a, b, c, r, s, t = form.coefficients
    beta = 4 * a * b - t * t
    gy, dy = 4 * a * r - 2 * s * t, 4 * a * c - s * s
    detG = _mat.det(doubled_gram(form))
    # |y|, |z| <= sqrt(2n adj(2M)_ii / det 2M) on the ellipsoid; over that
    # box, worst bounds |D|, |B| + k and every intermediate of _solve_rows
    zb = isqrt((2 * n * beta) // detG) + 1
    yb = isqrt((2 * n * dy) // detG) + 1
    worst = (abs(t) * yb + abs(s) * zb) ** 2 + 4 * a * (
        b * yb * yb + c * zb * zb + abs(r) * yb * zb + n
    )
    if worst >= _INT64_SAFE:
        raise OverflowError("representation discriminants would not fit in int64")
    hits, chunk, cells = [], [], 0
    for z in range(zb + 1):
        ylo, yhi = _quad_interval(beta, gy * z, dy * z * z - 4 * a * n)
        if ylo > yhi:
            continue
        width = yhi - ylo + 1
        if chunk and cells + width > _BLOCK_CELLS:
            hits.append(_solve_rows(form, n, chunk))
            chunk, cells = [], 0
        chunk.append((z, ylo, width))
        cells += width
    if chunk:
        hits.append(_solve_rows(form, n, chunk))
    v = np.concatenate(hits, axis=1)  # the slice z = 0 is never empty
    v = np.concatenate((v, -v[:, v[2] > 0]), axis=1)  # -v solves the slice at -z
    x, y, z = v
    return list(map(_vector3, v.T[np.lexsort((z, y, x))].tolist()))


class ThetaSeries:
    """Representation counts coeffs[n] = r(n, f) for 0 <= n <= bound."""

    __slots__ = ("form", "bound", "coeffs")

    def __init__(self, form: QuadForm, bound: int, coeffs):
        self.form = form
        self.bound = int(bound)
        arr = np.asarray(coeffs, dtype=np.int64)
        arr.setflags(write=False)
        self.coeffs = arr

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return int(self.coeffs[n])

    def __eq__(self, other):
        if not isinstance(other, ThetaSeries):
            return NotImplemented
        return self.bound == other.bound and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        head = ", ".join(str(int(x)) for x in self.coeffs[:8])
        return f"ThetaSeries(bound={self.bound}, coeffs=[{head}{', ...' if self.bound > 7 else ''}])"


def theta(form: QuadForm, bound: int, primitive: bool = False) -> ThetaSeries:
    """All counts r(n, f), n <= bound, in one slice sweep.

    The z > 0 slices are counted twice (negation symmetry); z = 0 once.
    With primitive=True only coprime-coordinate vectors are counted.
    """
    bound = int(bound)
    counts = np.zeros(bound + 2, dtype=np.int64)
    for z, values in _capped_slices(form, bound, primitive):
        np.add.at(counts, values, 1 if z == 0 else 2)
    return ThetaSeries(form, bound, counts[: bound + 1])
