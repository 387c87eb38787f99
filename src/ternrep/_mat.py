"""Exact 3x3 integer matrix arithmetic on tuples of row tuples.

Everything here runs on plain Python ints, so there is no overflow to
worry about; numpy is deliberately not used in this module.
"""

from math import gcd

Mat3 = tuple  # ((int, int, int), (int, int, int), (int, int, int))

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def from_rows(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def transpose(A):
    return tuple(zip(*A))


def mat_mul(A, B):
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
    return tuple(
        (x * b00 + y * b10 + z * b20, x * b01 + y * b11 + z * b21, x * b02 + y * b12 + z * b22)
        for x, y, z in A
    )


def scalar_mul(k, A):
    return tuple(tuple(k * x for x in row) for row in A)


def det(A):
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )


def congruence(T, G):
    """T^t G T for symmetric G."""
    return mat_mul(transpose(T), mat_mul(G, T))


def scaled_identity(k):
    return ((k, 0, 0), (0, k, 0), (0, 0, k))


def is_finite_order_scaled(T, d):
    """True iff (T/d)^k = I for some k <= 12, that is iff T/d has finite order.

    A 3x3 rational matrix of finite order has order dividing 12, so the
    first 12 powers decide finite order outright.
    """
    P = IDENTITY
    target = 1
    for _ in range(12):
        P = mat_mul(P, T)
        target *= d
        if P == scaled_identity(target):
            return True
    return False


def primitive_vector(v):
    """Nonzero v divided by its gcd, first nonzero coordinate positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def axis(E, d):
    """The axis v of a scaled isometry E of infinite order: v E^t = lam v.

    E^t (2M) E = d^2 (2M) for a definite M, so (1/d)E is an isometry of a
    definite form, with eigenvalues eps, e^{i theta} and e^{-i theta}, where
    eps = det E / d^3 = +-1.  When (1/d)E has infinite order,
    e^{i theta} is not a root of unity, so every power E^k has exactly one
    rational eigenline: the kernel of E - lam I, lam = det E / d^2 = +-d,
    with eigenvalue lam^k.  That kernel has rank 1, so two rows of
    E - lam I have a nonzero cross product spanning it; v is its
    primitive, sign-canonical multiple.
    """
    lam = det(E) // (d * d)
    r0, r1, r2 = (tuple(E[i][j] - (lam if i == j else 0) for j in range(3)) for i in range(3))
    cross = next(c for c in (_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)) if c != (0, 0, 0))
    return primitive_vector(cross)
