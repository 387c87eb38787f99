"""Independent brute-force oracle used to validate the production enumerator.

Deliberately naive: size-reduce the form by unimodular steps, scan the
full coordinate box |x_i| <= r_i that holds its ellipsoid form(v) <= bound,
evaluate the polynomial directly, and keep values <= bound.  Values and
primitivity do not change under a unimodular change of basis.  No slicing,
no interval solving - nothing shared with the code under test.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np
import sympy

from ternrep.forms import QuadForm, doubled_gram, evaluate


def size_reduced(form):
    """An equivalent form reached by steps b_i -> b_i - q b_j of its basis.

    q is the nearest integer to G_ij / G_jj for the doubled Gram matrix G,
    and a step is taken only when it strictly shrinks the diagonal entry
    G_ii, a positive integer, so the loop ends.
    """
    G = [list(row) for row in doubled_gram(form)]
    changed = True
    while changed:
        changed = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                q = round(Fraction(G[i][j], G[j][j]))
                shrunk = G[i][i] - 2 * q * G[i][j] + q * q * G[j][j]
                if shrunk < G[i][i]:
                    for k in range(3):
                        if k != i:
                            G[i][k] = G[k][i] = G[i][k] - q * G[j][k]
                    G[i][i] = shrunk
                    changed = True
    return QuadForm(G[0][0] // 2, G[1][1] // 2, G[2][2] // 2, G[1][2], G[0][2], G[0][1])


def box(form, bound):
    """Radii (r_0, r_1, r_2) with every v of form(v) <= bound in |v_i| <= r_i.

    On the ellipsoid v (2M) v^t <= 2 bound, the largest v_i^2 is
    2 bound (2M)^-1_ii = 2 bound adj(2M)_ii / det(2M).
    """
    G = sympy.Matrix(doubled_gram(form))
    det, adj = G.det(), G.adjugate()
    assert det > 0 and G[0, 0] > 0, "oracle needs a positive definite form"
    return tuple(isqrt(int(2 * bound * adj[i, i] // det)) + 1 for i in range(3))


def value_counts(form, bound, primitive=False):
    """counts[n] = number of lattice vectors with form value n <= bound.

    With primitive=True only vectors whose coordinates have gcd 1 count.
    """
    form = size_reduced(form)
    X, Y, Z = np.meshgrid(*(np.arange(-r, r + 1, dtype=np.int64) for r in box(form, bound)),
                          indexing="ij")
    a, b, c, r, s, t = form.coefficients
    vals = a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y
    if primitive:
        vals = vals[np.gcd(np.gcd(X, Y), Z) == 1]
    vals = vals.ravel()
    vals = vals[(vals >= 0) & (vals <= bound)]
    return np.bincount(vals, minlength=bound + 1)


def value_mask(form, bound):
    return value_counts(form, bound) > 0


def reps_in_box(form, n):
    """Every v with form(v) = n, in lexicographic order, from the box of form itself.

    The form is not reduced: each plane x = const of the box is evaluated
    in full, so memory stays at one plane.
    """
    rx, ry, rz = box(form, n)
    a, b, c, r, s, t = form.coefficients
    Y = np.arange(-ry, ry + 1, dtype=np.int64)[:, None]
    Z = np.arange(-rz, rz + 1, dtype=np.int64)[None, :]
    out = []
    for x in range(-rx, rx + 1):
        vals = a * x * x + b * Y * Y + c * Z * Z + r * Y * Z + s * x * Z + t * x * Y
        out.extend((x, int(y) - ry, int(z) - rz) for y, z in np.argwhere(vals == n))
    return out


def triple_loop_reps(form, n, radius):
    """Pure-Python triple loop; only for tiny radii."""
    out = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            for z in range(-radius, radius + 1):
                if evaluate(form, (x, y, z)) == n:
                    out.append((x, y, z))
    return sorted(out)


def attained_residues(form, modulus):
    """Residues mod `modulus` taken by the form on all modulus^3 coordinate triples."""
    rng = np.arange(modulus, dtype=np.int64)
    X, Y, Z = np.meshgrid(rng, rng, rng, indexing="ij")
    a, b, c, r, s, t = form.coefficients
    vals = a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y
    return tuple(int(v) for v in np.unique(vals % modulus))


def class_cosets(form, d):
    """{a: cosets v in [0, d)^3 with form(v) = a (mod d)}, each list lexicographic."""
    out = {}
    for x in range(d):
        for y in range(d):
            for z in range(d):
                out.setdefault(evaluate(form, (x, y, z)) % d, []).append([x, y, z])
    return out


def eigen_lines(A):
    """[(v, lambda)] with A v = lambda v, for every rational eigenvalue lambda.

    General and exact, by sympy: the rational roots come from factoring the
    characteristic polynomial over the integers, the eigenspace basis from
    the nullspace of A - lambda I, each vector scaled to be primitive with
    its first nonzero coordinate positive.  Sorted by (lambda, v).
    Memoised on the matrix, and A shares the computation of -A, whose
    eigenlines are the same with lambda negated: a set closed under
    T -> -T meets every power E^k twice, as E^k and as (-E)^k = +-E^k.
    """
    A = tuple(map(tuple, A))
    minus = tuple(tuple(-x for x in row) for row in A)
    if A <= minus:
        return list(_eigen_lines(A))
    return sorted(((v, -lam) for v, lam in _eigen_lines(minus)), key=lambda p: (p[1], p[0]))


@lru_cache(maxsize=None)
def _eigen_lines(A):
    M = sympy.Matrix(A)
    out = []
    for lam in M.charpoly().ground_roots():
        for v in (M - lam * sympy.eye(3)).nullspace():
            den = sympy.ilcm(*(x.q for x in v))
            w = [int(x * den) for x in v]
            k = gcd(*w) * (1 if next(x for x in w if x) > 0 else -1)
            out.append((tuple(x // k for x in w), int(lam)))
    return tuple(sorted(out, key=lambda p: (p[1], p[0])))


def primitive_counts(counts):
    """r*(n) = sum over d^2 | n of mu(d) r(n / d^2) for n >= 1, and r*(0) = 0.

    counts holds r(n) for 0 <= n <= bound, such as theta's.  Each v != 0
    is d w with w primitive and f(w) = f(v) / d^2, so r(n) is the sum of
    r*(n / d^2) over d^2 | n, and Moebius inversion gives r*.
    """
    counts = np.asarray(counts)
    bound = len(counts) - 1
    out = np.zeros_like(counts)
    for d in range(1, isqrt(bound) + 1):
        out[:: d * d] += int(sympy.mobius(d)) * counts[: bound // (d * d) + 1]
    out[0] = 0
    return out
