"""Exact 3x3 integer matrix arithmetic on tuples of row tuples.

Everything here runs on plain Python ints, so there is no overflow to
worry about; numpy is deliberately not used in this module.
"""

from math import gcd, isqrt

Mat3 = tuple  # ((int, int, int), (int, int, int), (int, int, int))

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def from_rows(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def transpose(A):
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def scalar_mul(k, A):
    return tuple(tuple(k * x for x in row) for row in A)


def det(A):
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )


def act(A, v):
    """Image of a row vector under v |-> v A^t (componentwise A @ v)."""
    return tuple(A[i][0] * v[0] + A[i][1] * v[1] + A[i][2] * v[2] for i in range(3))


def congruence(T, G):
    """T^t G T for symmetric G."""
    return mat_mul(transpose(T), mat_mul(G, T))


def scaled_identity(k):
    return ((k, 0, 0), (0, k, 0), (0, 0, k))


def is_finite_order_scaled(T, d, kmax=12):
    """True iff (T/d)^k = I for some k <= kmax.

    A 3x3 rational matrix of finite order has order dividing 12, so for
    kmax >= 12 this decides finite order outright.
    """
    P = IDENTITY
    target = 1
    for _ in range(kmax):
        P = mat_mul(P, T)
        target *= d
        if P == scaled_identity(target):
            return True
    return False


def char_poly(A):
    """Coefficients (p2, p1, p0) of det(xI - A) = x^3 + p2 x^2 + p1 x + p0."""
    tr = A[0][0] + A[1][1] + A[2][2]
    m2 = (
        A[1][1] * A[2][2] - A[1][2] * A[2][1]
        + A[0][0] * A[2][2] - A[0][2] * A[2][0]
        + A[0][0] * A[1][1] - A[0][1] * A[1][0]
    )
    return (-tr, m2, -det(A))


def _floor_shifted_sqrt(num, D, q):
    """floor((num - sqrt(D)) / q) for D >= 0, q > 0, exactly."""
    u = isqrt(D)
    cand = (num - u) // q  # within one of the answer
    while q * cand > num or (num - q * cand) ** 2 < D:  # i.e. cand > (num - sqrt D)/q
        cand -= 1
    while q * (cand + 1) <= num and (num - q * (cand + 1)) ** 2 >= D:
        cand += 1
    return cand


def _ceil_shifted_sqrt(num, D, q):
    """ceil((num + sqrt(D)) / q) for D >= 0, q > 0, exactly."""
    return -_floor_shifted_sqrt(-num, D, q)


def _bisect_root(p, lo, hi, increasing):
    """The integer root of monotone p on [lo, hi], or None."""
    if lo > hi:
        return None
    sgn = 1 if increasing else -1
    plo, phi = sgn * p(lo), sgn * p(hi)
    if plo == 0:
        return lo
    if phi == 0:
        return hi
    if plo > 0 or phi < 0:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        val = sgn * p(mid)
        if val == 0:
            return mid
        if val < 0:
            lo = mid
        else:
            hi = mid
    return None


def integer_eigenvalues(A):
    """Integer roots of the characteristic polynomial, by exact bisection.

    The cubic is split at its critical points into monotone pieces, so no
    divisor enumeration is needed even for huge determinants.
    """
    p2, p1, p0 = char_poly(A)

    def p(x):
        return ((x + p2) * x + p1) * x + p0

    bound = 1 + max(abs(p2), abs(p1), abs(p0))
    # p'(x) = 3x^2 + 2 p2 x + p1, critical points ((-p2) -+ sqrt(disc)) / 3
    disc = p2 * p2 - 3 * p1
    roots = set()
    if disc <= 0:
        pieces = [(-bound, bound, True)]
    else:
        t1_floor = _floor_shifted_sqrt(-p2, disc, 3)
        t2_ceil = _ceil_shifted_sqrt(-p2, disc, 3)
        pieces = [
            (-bound, t1_floor, True),
            (t1_floor + 1, t2_ceil - 1, False),
            (t2_ceil, bound, True),
        ]
    for lo, hi, increasing in pieces:
        root = _bisect_root(p, lo, hi, increasing)
        if root is not None:
            roots.add(root)
    return sorted(roots)


def primitive_vector(v):
    """Divide out gcd and make the first nonzero coordinate positive."""
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        return None
    w = tuple(x // g for x in v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    return None


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plane_kernel_basis(w):
    """Basis of the rank-2 lattice {v : w . v = 0} for primitive w."""
    p, q, r = w
    if q == 0 and r == 0:
        return [(0, 1, 0), (0, 0, 1)]
    g1 = gcd(abs(q), abs(r))
    v1 = (0, r // g1, -q // g1)
    # alpha q + beta r = g1
    alpha, beta = _xgcd(q, r)
    v2 = (g1, -alpha * p, -beta * p)
    return [primitive_vector(v1), primitive_vector(v2)]


def _xgcd(a, b):
    """(x, y) with x a + y b = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def kernel_basis(A):
    """Basis of {v in Z^3 : A v = 0}, primitive and sign-canonical."""
    if det(A) != 0:
        return []
    rows = [A[0], A[1], A[2]]
    crosses = [_cross(rows[0], rows[1]), _cross(rows[0], rows[2]), _cross(rows[1], rows[2])]
    nonzero_cross = [c for c in crosses if c != (0, 0, 0)]
    if nonzero_cross:
        # rank 2: one-dimensional kernel
        return [primitive_vector(nonzero_cross[0])]
    nonzero_rows = [r for r in rows if r != (0, 0, 0)]
    if not nonzero_rows:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # rank 1: all rows proportional, kernel is the plane of one of them
    return sorted(_plane_kernel_basis(primitive_vector(nonzero_rows[0])))


def eigen_lines(A):
    """All (vector, eigenvalue) classes with v A^t = lambda v, v primitive.

    Eigenvalues are the integer roots of the characteristic polynomial;
    multi-dimensional eigenspaces contribute one entry per lattice basis
    vector.
    """
    out = []
    for lam in integer_eigenvalues(A):
        B = tuple(
            tuple(A[i][j] - (lam if i == j else 0) for j in range(3)) for i in range(3)
        )
        for v in kernel_basis(B):
            out.append((v, lam))
    return sorted(out, key=lambda p: (p[1], p[0]))
