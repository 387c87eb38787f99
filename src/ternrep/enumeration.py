"""Complete bounded enumeration of lattice points of a definite ternary form.

Every enumeration walks the same rows (y, z) of the region f(v) <= N,
z >= 0, in _rows.  Eliminating x,

    min over x of f(x, y, z)  <=  N
    <=>  (4ab - t^2) y^2 + (4ar - 2st) z y + (4ac - s^2) z^2 <= 4 a N,

gives each slice z its y-range, computed with integer square roots,
widened by one, so no lattice point can be missed.  With B = t y + s z,
a row's values are f(x, y, z) = ((2 a x + B)^2 - D) / 4a + N, where
D = 4aN minus the slice polynomial above: the row is a parabola in x
whose vertex lies at -B / 2a and whose points with f <= N lie within
sqrt(D) / 2a of it.

Only z >= 0 is walked: v and -v take the same value, and negation maps
the slice at z to the slice at -z.

represented_mask visits no lattice point.  With
c1 = 2a x0 + B in (-a, a] and c0 = f(x0, y, z), the row's minimum, the
row's values are c0 + c1 j + a j^2, j in Z: a translate of one of a + 1
parabolas, since c1 = -m gives the values of c1 = m with j -> -j.  So
with m = |c1|, C_m the row minima c0 <= N of the rows of class m and

    O_m = {m j + a j^2 <= N},

the values <= N are the union over m of the sumsets (C_m + O_m) cut at
N.  For |j| >= K + 2, K = isqrt(N // a), m j + a j^2 >= a |j| (|j| - 1)
>= a (K + 2)(K + 1) > a (K + 1)^2 > N, because m <= a and (K + 1)^2 > N / a;
so |j| <= K + 2 holds all of O_m, with one to spare.  The form's
content k, the gcd of its coefficients, is divided out first: f = k h,
so the values of f up to N are k times the values of h up to N // k.
The kernel runs on h and returns (k, the packed bitset of h's values up
to N // k), _value_bits, a key that family checks compare without
unpacking; it walks the same rows, but its bitsets and shifted ORs are
k times smaller (every catalog form is used at scale 2).  The mask
unpacks that bitset into every k-th slot.  Then the coordinates
are permuted to make a the smallest diagonal coefficient (the values
do not change), which gives the fewest classes and the fewest rows.
A class's sumset is ORed into a packed little-endian bitset: the bitset
of C_m, shifted by each element of O_m.  The shifted copy is made once
per bit phase p (0..7) of O_m in one buffer, so each element s = 8q + p
costs one byte-aligned np.bitwise_or into a view of the bitset, of at
most N/8 bytes: O(sqrt(a N)) ORs per form in all, where the row scan
marks about N^(3/2) / sqrt(det) lattice points.  g = gcd(s, t, 2a)
divides every c1, so a row's class is known before any row is walked:
it is filed in slot m / g, and up to 8 fixed slots own one bit each of
a byte per value in [0, N].  The row minima of those slots are
collected in those bytes from their first row, so a chunk's rows are
stored by one unbuffered OR in row order, with no sort.  The rows of
every other slot scatter their sums c0 + m j + a j^2 instead, into a
bool array that is packed into the bitset once the walk ends.  After
the walk the classes are packed from those bytes one at a time, each
into the same bitset buffer, and ORed in: besides the bytes of the
walk (the minima and the scattered sums, one each per value), the
kernel holds three bitsets (C_m, its shifted copy and the union),
however many classes it collects.

theta adds the same sums, of every row with c0 <= N of f itself, into
its counts; an x-shear x -> x + k y + l z moves each row's vertex by a
whole step, so it changes no (c0, m) and no cell that theta fills.

representations(f, n) solves each row for x instead: D is the
discriminant of f(x, y, z) = n as a quadratic in x, so a row has a
solution only where D is a perfect square; a float square root rounded
to an integer and squared back decides it exactly.  One walk at a top
norm solves every smaller norm too (_vectors_by_norm): a row's D at n is
its D at top minus 4a(top - n).

The magnitudes of all of them are bounded once, over the whole bounding
box, before any row is walked (_rows): the rows are int32 when every
intermediate fits in int32, int64 when it fits in int64, and a form or
bound beyond int64 raises OverflowError at once.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import index

import numpy as np

from .forms import QuadForm, doubled_gram, require_positive_definite
from . import _mat

_INT64_SAFE = 2**62
_INT32_SAFE = 2**30  # rows below it are int32 (see _rows)
_BLOCK_CELLS = 1 << 15  # 256 KB of int64 per block


def _quad_interval(P, Q, R):
    """Integer range [lo, hi] containing {x : P x^2 + Q x + R <= 0}, P > 0.

    Widened by one on each side; callers re-check candidates exactly.
    Returns lo > hi when the interval is empty.
    """
    D = Q * Q - 4 * P * R
    if D < 0:
        return 1, 0
    iD = isqrt(D)
    return -((Q + iD) // (2 * P)) - 1, (iD - Q) // (2 * P) + 1  # ceil(-u) = -floor(u)


def _rows(form: QuadForm, bound: int, size: int, size32: int | None = None):
    """Yield (y, z, D) for the rows of f(v) <= bound, z >= 0, size rows at a time.

    form must be positive definite; y, z and D are arrays of one integer dtype
    over the rows (y, z) of the slices z = 0, 1, ... in order, each slice's
    y-range exact from _quad_interval; a chunk holds size rows, or size32 when
    the rows are int32 (size if not given; at least one, the last chunk
    fewer), so the rows of consecutive slices share a chunk and a long slice
    is split over several.
    D = 4 a bound - (beta y^2 + gy y z + dy z^2) is B^2 - 4a(C - bound) for
    B = t y + s z and C = f(0, y, z): f(x, y, z) <= bound iff
    (2 a x + B)^2 <= D.

    Overflow guard, checked once before the first row: on the ellipsoid
    |y| <= yb and |z| <= zb, yb^2 and zb^2 being 2 bound adj(2M)_ii / det 2M
    rounded up, and

        worst = (|t| yb + |s| zb)^2 + 4a (b yb^2 + c zb^2 + |r| yb zb + bound)

    bounds B^2 + 4a C, 4a bound + 4a C, every term and partial sum of D
    and so |D|; so is |B^2 - 4a(C - n)|, 0 <= n <= bound, which
    _vectors_by_norm solves, adding only B and k <= sqrt(D).
    _row_minima adds c1 = 2a x0 + B, which is B reduced into (-a, a], so
    c1^2 <= B^2, and c0 = (c1^2 - D) / 4a + bound, where
    |c1^2 - D| <= B^2 + 4a C + 4a bound <= worst.  theta and the sumset
    kernel keep only rows with c0 <= bound (the kernel walks the form
    divided by its content, at the bound divided by it); their keys
    c0 (a + 1) + |c1| are at most a bound + bound + a < worst, and the
    sums c0 + m j + a j^2 of _row_sums, with 0 <= m <= a and
    |j| <= sqrt(bound / a) + 2, at most
    2 bound + 5 sqrt(a bound) + 6a < 1.3 worst + 3 sqrt(worst).
    So every intermediate stays below 2 worst: the rows are int32 when
    worst < _INT32_SAFE = 2^30, int64 when worst < _INT64_SAFE = 2^62,
    and otherwise OverflowError is raised before any row is walked.  Every
    coefficient and product of coefficients that meets a row array is at
    most worst, so it fits the rows' dtype too.  The arrays that callers
    derive from the rows and a wider array (the j of a block, a float
    root) are int64.
    """
    a, b, c, r, s, t = form.coefficients
    beta = 4 * a * b - t * t
    gy, dy = 4 * a * r - 2 * s * t, 4 * a * c - s * s
    detG = _mat.det(doubled_gram(form))
    zb = isqrt((2 * bound * beta) // detG) + 1
    yb = isqrt((2 * bound * dy) // detG) + 1
    worst = (abs(t) * yb + abs(s) * zb) ** 2 + 4 * a * (
        b * yb * yb + c * zb * zb + abs(r) * yb * zb + bound
    )
    if worst >= _INT64_SAFE:
        raise OverflowError("slice values would not fit in int64")
    narrow = worst < _INT32_SAFE
    dtype = np.int32 if narrow else np.int64
    size = max(1, size32 if narrow and size32 is not None else size)

    def chunk(pieces):
        zs, ylos, widths = np.array(pieces, dtype=dtype).T
        z = np.repeat(zs, widths)
        starts = np.cumsum(widths, dtype=dtype) - widths
        y = np.arange(len(z), dtype=dtype) + np.repeat(ylos - starts, widths)
        D = np.repeat(4 * a * bound - dy * zs * zs, widths) - y * (beta * y + gy * z)
        return y, z, D

    pieces, filled = [], 0
    for z in range(zb + 1):
        lo, hi = _quad_interval(beta, gy * z, dy * z * z - 4 * a * bound)
        while hi - lo + 1 >= size - filled:  # the slice completes this chunk
            width = size - filled
            pieces.append((z, lo, width))
            yield chunk(pieces)
            lo, pieces, filled = lo + width, [], 0
        if lo <= hi:
            pieces.append((z, lo, hi - lo + 1))
            filled += hi - lo + 1
    if pieces:
        yield chunk(pieces)


def _row_minima(form: QuadForm, bound: int):
    """Yield (z, c0, m) for the rows (y, z) of _rows with c0 <= bound, a chunk at a time.

    c1 = 2a x0 + B in (-a, a], x0 the integer nearest the row's vertex,
    and c0 = f(x0, y, z), the row's minimum: the row's values are
    c0 + c1 j + a j^2, j in Z, and m = |c1|.  A chunk is
    _BLOCK_CELLS / 8 = 4,096 int64 rows or _BLOCK_CELLS / 6 = 5,461 int32
    rows: its dozen int32 row arrays then fill about one block of
    _BLOCK_CELLS int64 cells.
    """
    a, _, _, _, s, t = form.coefficients
    for y, z, D in _rows(form, bound, _BLOCK_CELLS // 8, _BLOCK_CELLS // 6):
        B = t * y + s * z
        c1 = 2 * a * ((a - B) // (2 * a)) + B
        c0 = (c1 * c1 - D) // (4 * a) + bound
        near = c0 <= bound
        yield z[near], c0[near], np.abs(c1[near])


def _smallest_diagonal_first(form: QuadForm):
    """(g, p): g(v) = form(v[p]), p the swap of x with a coordinate that makes a <= b, a <= c.

    The rows then run along the smallest diagonal coefficient, which keeps
    _rows's bound `worst` small.  p is its own inverse.
    """
    a, b, c, r, s, t = form.coefficients
    if b < a and b <= c:
        return QuadForm(b, a, c, s, r, t), [1, 0, 2]  # swap x and y
    if c < a and c < b:
        return QuadForm(c, b, a, t, s, r), [2, 1, 0]  # swap x and z
    return form, [0, 1, 2]


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending (np.unique's hash path is slower on small arrays)."""
    x = np.sort(x)
    starts = np.ones(len(x), dtype=bool)  # True where a run of equal values starts
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return x[starts]


def _pattern(a: int, m: int, bound: int) -> np.ndarray:
    """O_m: the distinct m j + a j^2 <= bound, ascending, over |j| <= isqrt(bound // a) + 2."""
    J = isqrt(bound // a) + 2
    j = np.arange(-J, J + 1, dtype=np.int64)
    o = m * j + a * j * j
    return _distinct(o[o <= bound])


def _or_shifted(bits: np.ndarray, big: np.ndarray, small: np.ndarray) -> None:
    """bits |= {v + s : v in the bitset big, s in small}, cut at the end of bits.

    big is as long as bits, and small is nonnegative.  One phase buffer
    holds big shifted up by p bits, for each bit phase p of small in
    turn, cut at the end of bits, so each s = 8q + p of that phase is one
    byte-aligned OR of the first len(bits) - q bytes of the buffer into
    the view bits[q:], in place; a shift that starts at or past the end
    of bits meets an empty view and ORs nothing.
    """
    phase = np.empty_like(big)
    q, p = small >> 3, small & 7
    for k in sorted(set(p.tolist())):
        np.left_shift(big, k, out=phase)
        if k:
            phase[1:] |= big[:-1] >> (8 - k)
        for i in q[p == k].tolist():
            v = bits[i:]
            np.bitwise_or(v, phase[: len(v)], out=v)


def _row_sums(a: int, bound: int, c0: np.ndarray, m: np.ndarray):
    """Yield the sums c0 + m j + a j^2 of the rows (c0, m), sums above bound capped at bound + 1.

    A row spans |j| <= J, J = floor(sqrt((bound - c0) / a)) + 2, which
    holds every sum <= bound (see the module docstring).  c0 is
    ascending, so the row widths 2 J + 1 do not grow along a block: a
    block takes the next rows, as many as fit in _BLOCK_CELLS int64 cells
    (256 KB) at the width of its first row (at least one).  Every block is
    a view of one buffer, which the next step of the generator
    overwrites: the memory used does not grow with the number of rows.
    """
    if not len(c0):
        return
    widths = 2 * np.sqrt((bound - c0) / a).astype(np.int64) + 5
    widest = int(widths[0])  # no block is larger than buf
    buf = np.empty(min(len(c0) * widest, max(_BLOCK_CELLS, widest)), dtype=np.int64)
    i = 0
    while i < len(c0):
        J = int(widths[i]) // 2
        n = min(len(c0) - i, max(1, _BLOCK_CELLS // int(widths[i])))
        j = np.arange(-J, J + 1, dtype=np.int64)
        block = buf[: n * len(j)].reshape(n, len(j))
        np.multiply.outer(m[i : i + n], j, out=block)
        block += a * j * j
        block += c0[i : i + n, None]
        np.minimum(block, bound + 1, out=block)
        yield block
        i += n


def represented_mask(form: QuadForm, bound: int) -> np.ndarray:
    """Boolean mask m of length bound + 1 with m[n] = True iff n is represented.

    Each call builds a fresh, writable mask: the bitset of _value_bits,
    unpacked into every k-th slot, k the content of form.
    """
    k, bits = _value_bits(form, bound)
    mask = np.zeros(bound + 1, dtype=bool)
    mask[::k] = np.unpackbits(bits, count=bound // k + 1, bitorder="little").view(bool)
    return mask


def _value_bits(form: QuadForm, bound: int):
    """(k, bits): the content k of form and the packed values of form / k up to bound // k.

    With k the gcd of the coefficients, f = k h, so the values of f up to
    bound are k times those of h up to bound // k.  bits is the
    little-endian bitset of h's values, from sumsets (see the module
    docstring): bit v, v <= bound // k, is set iff h represents v, and the
    bits past bound // k in the last byte are clear, so two forms whose
    values agree up to bound and whose contents agree have equal keys.
    When bound < k only 0 is in range, and bits is one byte, so the key
    never grows with k.
    """
    bound = index(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    require_positive_definite(form)
    k = gcd(*form.coefficients)
    return k, _fill_sumsets(QuadForm(*(c // k for c in form.coefficients)), bound // k)


def _fill_sumsets(form: QuadForm, bound: int) -> np.ndarray:
    """The packed little-endian bitset of the values <= bound of form, bound // 8 + 1 bytes.

    See the module docstring: each row adds c0 + O_m, and rows are filed
    by their slot m / g.  _walk_rows collects the row minima of the slots
    with a bit, min(8, a / g + 1) of them, and scatters all other rows
    into a bool array, which is packed once the walk ends.  Then one
    class at a time packs its bitset C_m from the byte array of minima,
    in blocks, into one reused buffer, and ORs in C_m + O_m by shifting
    that bitset by each element of O_m: the memory used does not grow
    with the number of collected classes.  The shifted ORs set bits past bound in the
    last byte, which are cleared at the end.
    """
    form, _ = _smallest_diagonal_first(form)
    a = form.coefficients[0]
    nbytes = bound // 8 + 1
    seen = np.zeros(bound + 2, dtype=bool)  # the last slot absorbs clipped sums
    minima, classes = _walk_rows(seen, form, bound)
    bits = np.packbits(seen[: bound + 1], bitorder="little")  # bit v: v in a scattered row's sums
    del seen
    C = np.empty(nbytes, dtype=np.uint8)
    for m, bit in classes:
        for i in range(0, nbytes, _BLOCK_CELLS):
            part = minima[8 * i : 8 * (i + _BLOCK_CELLS)]
            C[i : i + _BLOCK_CELLS] = np.packbits(part & bit, bitorder="little")
        _or_shifted(bits, C, _pattern(a, m, bound))
    bits[-1] &= (2 << (bound & 7)) - 1
    return bits


def _walk_rows(seen: np.ndarray, form: QuadForm, bound: int):
    """Walk the rows of form: collect the classes of up to 8 slots, scatter the others into seen.

    Returns (minima, classes): bit k of the uint8 minima[v], v <= bound,
    says that v is a row minimum of the class m of bit k, and classes
    lists (m, 1 << k) for the collected classes, ascending in m.
    Returning drops the last chunk's arrays before the classes are packed.

    g = gcd(s, t, 2a) divides c1, so a row's class m is a multiple of g
    in [0, a] and its slot is m / g.  Bit k is slot k, or slot k + 1 when
    there are more than 8 slots: m = 0 and m = a each come from one
    residue of c1, every other class from two, so the middle slots hold
    the most rows.  A slot with a bit is collected from its first row, by
    one unbuffered OR per chunk in row order, with no sort and no removal
    of repeats; slots with no bit are always scattered, and a chunk with
    no row left to scatter scatters nothing.
    """
    a, _, _, _, s, t = form.coefficients
    g = gcd(s, t, 2 * a)  # c1 = B mod 2a, and g divides B = t y + s z and 2a
    slots = a // g + 1
    first = 1 if slots > 8 else 0  # the slot of bit 0
    bit = 1 << np.arange(min(8, slots), dtype=np.uint8)
    # each slot's bit, 0 where it is scattered; slots past bit 7's share the last entry
    flag = np.zeros(min(slots, 10), dtype=np.uint8)
    flag[first : first + len(bit)] = bit
    minima = np.zeros(bound + 1, dtype=np.uint8)
    for _, c0, m in _row_minima(form, bound):
        ones = flag.take(m // g if g > 1 else m, mode="clip")
        np.bitwise_or.at(minima, c0, ones)  # a scattered row ORs in 0
        rest = ones == 0
        c0, m = c0[rest], m[rest]
        if len(c0):
            # distinct (c0, m), ordered by c0
            c0, m = np.divmod(_distinct(c0 * (a + 1) + m), a + 1)
            for block in _row_sums(a, bound, c0, m):
                seen[block] = True
    chosen = np.flatnonzero(flag)
    return minima, list(zip((chosen * g).tolist(), flag[chosen].tolist()))


def represented_set(form: QuadForm, bound: int) -> np.ndarray:
    """All represented integers in [0, bound], ascending, as an int64 array."""
    return np.flatnonzero(represented_mask(form, bound))


def _solve_rows(form: QuadForm, y, z, D):
    """(i, v): the (x, y, z) with f = n_i on the rows (y, z) of _rows, v (3, k) int64.

    D[i] = B^2 - 4a(C - n_i), one row per norm n_i, with B = t y + s z and
    C = f(0, y, z): x is an integer root iff D[i] is a square k^2 and 2a
    divides -B + k or -B - k.  k, the float64 root of D rounded, is kept
    only if k^2 == D exactly: for D < 2^62 the float root of a square k^2
    lies within 2^-20 of k, so none is missed.  Solutions come ordered by i.
    """
    a, _, _, _, s, t = form.coefficients
    k = np.rint(np.sqrt(np.maximum(D, 0))).astype(np.int64)
    hits = np.flatnonzero(k * k == D)  # np.nonzero of a 2-D array is several times slower
    i, rows = np.divmod(hits, D.shape[1])
    y, z, k = y[rows], z[rows], k.ravel()[hits]
    B = t * y + s * z
    twice = k != 0  # a double root counts once
    num = np.concatenate((k - B, -k[twice] - B[twice]))
    i, y, z = (np.concatenate((u, u[twice])) for u in (i, y, z))
    whole = num % (2 * a) == 0
    return i[whole], np.stack((num[whole] // (2 * a), y[whole], z[whole]))


def _vectors_by_norm(form: QuadForm, norms) -> list:
    """[{v : f(v) = n} for n in norms], unsorted (N, 3) int64 arrays; every n >= 0.

    One walk of the rows of f(v) <= top = max(norms), x along the smallest
    diagonal coefficient; -v gives z < 0.  A chunk solves D - 4a(top - n),
    D its discriminants at top, as one (len(norms), rows) array of at most
    _BLOCK_CELLS cells; the offsets are built after _rows's overflow guard.
    """
    g, p = _smallest_diagonal_first(form)
    a, top = g.coefficients[0], max(norms)
    offsets, solved = None, []
    for y, z, D in _rows(g, top, _BLOCK_CELLS // len(norms)):
        if offsets is None:
            offsets = np.array([4 * a * (top - n) for n in norms], dtype=D.dtype)[:, None]
        solved.append(_solve_rows(g, y, z, D - offsets))
    i, v = (np.concatenate(parts, axis=-1) for parts in zip(*solved))  # z = 0 is never empty
    neg = v[2] > 0  # -v solves the slice at -z
    i = np.concatenate((i, i[neg]))
    v = np.concatenate((v, -v[:, neg]), axis=1)[p].T  # f(v[p]) = g(v)
    return [v[i == k] for k in range(len(norms))]


def representations(form: QuadForm, n: int) -> np.ndarray:
    """The complete set {v : f(v) = n} as an (N, 3) int64 array, rows in lexicographic order.

    The walk of _vectors_by_norm with the one norm n, sorted.  For n < 0
    the array is empty, of shape (0, 3).

    Raises OverflowError before any row is solved when some value of the
    int64 computation could reach 2^62.
    """
    require_positive_definite(form)
    n = index(n)
    if n < 0:
        return np.empty((0, 3), dtype=np.int64)
    v = _vectors_by_norm(form, [n])[0]
    return v[np.lexsort(v.T[::-1])]  # lexsort's last key is the primary one


def theta(form: QuadForm, bound: int) -> np.ndarray:
    """The int64 counts r(n, f), 0 <= n <= bound (length bound + 1), in one row sweep.

    Each row with c0 <= bound adds its sums c0 + m j + a j^2 (_row_sums),
    once for z = 0 and twice for z > 0 (negation symmetry), with one
    scalar weight per np.add.at call: a broadcast weight array took 5x as
    long.  m = |c1| in place of c1 counts the same values, as j runs over
    a symmetric range.  The rows run along the smallest diagonal
    coefficient (_smallest_diagonal_first), as in represented_mask.
    """
    bound = index(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    require_positive_definite(form)
    form, _ = _smallest_diagonal_first(form)  # r(n, f) is unchanged
    a = form.coefficients[0]
    counts = np.zeros(bound + 2, dtype=np.int64)  # slot bound + 1 absorbs capped sums
    for z, c0, m in _row_minima(form, bound):
        for weight, rows in ((1, z == 0), (2, z > 0)):
            # the rows ordered by c0, as _row_sums takes them
            c0s, ms = np.divmod(np.sort(c0[rows] * (a + 1) + m[rows]), a + 1)
            for block in _row_sums(a, bound, c0s, ms):
                np.add.at(counts, block, weight)
    return counts[: bound + 1]
