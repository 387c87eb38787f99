"""Independent brute-force oracle used to validate the production enumerator.

Deliberately naive: scan the full coordinate box |x|,|y|,|z| <= B where B
comes from a rigorous lower bound on the smallest eigenvalue of the Gram
matrix, evaluate the polynomial directly, and keep values <= bound.  No
slicing, no interval solving - nothing shared with the code under test.
"""

from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import sympy

from ternrep.forms import doubled_gram, evaluate


def eigen_lower_bound(form) -> Fraction:
    """Positive rational lower bound on the least eigenvalue of M_f."""
    G = doubled_gram(form)
    gersh = min(G[i][i] - sum(abs(G[i][j]) for j in range(3) if j != i) for i in range(3))
    if gersh > 0:
        return Fraction(gersh, 2)
    # det(G) / lambda_max(G)^2 with lambda_max bounded by the max row sum
    detG = (
        G[0][0] * (G[1][1] * G[2][2] - G[1][2] ** 2)
        - G[0][1] * (G[0][1] * G[2][2] - G[1][2] * G[0][2])
        + G[0][2] * (G[0][1] * G[1][2] - G[1][1] * G[0][2])
    )
    row_max = max(sum(abs(x) for x in row) for row in G)
    return Fraction(detG, row_max**2) / 2


def box_radius(form, bound) -> int:
    lam = eigen_lower_bound(form)
    assert lam > 0, "oracle needs a positive definite form"
    ratio = Fraction(bound) / lam
    return isqrt(ratio.numerator // ratio.denominator) + 2


def value_counts(form, bound, primitive=False):
    """counts[n] = number of lattice vectors with form value n <= bound.

    With primitive=True only vectors whose coordinates have gcd 1 count.
    """
    B = box_radius(form, bound)
    rng = np.arange(-B, B + 1, dtype=np.int64)
    X, Y, Z = np.meshgrid(rng, rng, rng, indexing="ij")
    a, b, c, r, s, t = form.coefficients
    vals = a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y
    if primitive:
        vals = vals[np.gcd(np.gcd(X, Y), Z) == 1]
    vals = vals.ravel()
    vals = vals[(vals >= 0) & (vals <= bound)]
    return np.bincount(vals, minlength=bound + 1)


def value_mask(form, bound):
    return value_counts(form, bound) > 0


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
    """
    M = sympy.Matrix(A)
    out = []
    for lam in M.charpoly().ground_roots():
        for v in (M - lam * sympy.eye(3)).nullspace():
            den = sympy.ilcm(*(x.q for x in v))
            w = [int(x * den) for x in v]
            k = gcd(*w) * (1 if next(x for x in w if x) > 0 else -1)
            out.append((tuple(x // k for x in w), int(lam)))
    return sorted(out, key=lambda p: (p[1], p[0]))
