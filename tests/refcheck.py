"""A plain-int reference for the scans of certificate.check.

refcheck(cert) re-derives, for each direction of a parsed certificate:
- the subform identity, or for a cover, every transform and escape
  identity;
- the cosets of each class (d, a), by a direct scan of all d^3 vectors;
- the bad cosets, those no listed transform makes integral, and that the
  escape matrix makes each of them integral;
- the cover: a direct scan of (Z/L)^3 for the residues the form attains
  mod L, each of which must lie in some class.

It returns True when all of these hold.  It checks no schema, and not the
escape's order, axis and witness clauses.  It uses no numpy and nothing
from ternrep, and it factors no modulus, so it shares no computation with
the checker's prime-power scans: check(c).ok must imply refcheck(c).
"""

from itertools import product
from math import lcm


def value(form, v):
    a, b, c, r, s, t = form
    x, y, z = v
    return a * x * x + b * y * y + c * z * z + r * y * z + s * x * z + t * x * y


def gram(form):
    """The doubled Gram matrix of form."""
    a, b, c, r, s, t = form
    return [[2 * a, t, s], [t, 2 * b, r], [s, r, 2 * c]]


def congruence(T, G):
    """T^t G T, entry by entry."""
    return [[sum(T[k][i] * G[k][m] * T[m][j] for k in range(3) for m in range(3))
             for j in range(3)] for i in range(3)]


def integral(M, v, d):
    """M v = 0 (mod d)."""
    x, y, z = v
    return all((m0 * x + m1 * y + m2 * z) % d == 0 for m0, m1, m2 in M)


def rows_mod(form, d):
    """(x, y, [form(x, y, z) mod d for z in [0, d)]) for each (x, y) in [0, d)^2."""
    _, _, c, r, s, _ = form
    for x, y in product(range(d), repeat=2):
        # form(x, y, z) = form(x, y, 0) + (s x + r y + c z) z
        base, lin = value(form, (x, y, 0)), s * x + r * y
        yield x, y, [(base + (lin + c * z) * z) % d for z in range(d)]


def class_cosets(form, d, a):
    """The cosets v in [0, d)^3 with form(v) = a (mod d), lexicographic."""
    return [(x, y, z) for x, y, row in rows_mod(form, d) for z, w in enumerate(row) if w == a]


def attained(form, L):
    """The residues mod L that form takes on [0, L)^3."""
    seen = set()
    for _, _, row in rows_mod(form, L):
        seen.update(row)
        if len(seen) == L:
            break
    return seen


def _cover(sub, sup, record):
    classes = record["classes"]
    G_sub, G_sup = gram(sub), gram(sup)
    L = lcm(*(rec["d"] for rec in classes))
    if any(all(rho % rec["d"] != rec["a"] for rec in classes) for rho in attained(sub, L)):
        return False
    for rec in classes:
        d, a = rec["d"], rec["a"]
        scaled = [[d * d * x for x in row] for row in G_sub]
        if any(congruence(T, G_sup) != scaled for T in rec["transforms"]):
            return False
        bad = [v for v in class_cosets(sub, d, a)
               if not any(integral(T, v, d) for T in rec["transforms"])]
        escape = rec.get("escape")
        if escape is None:
            if bad:
                return False
            continue
        E = escape["matrix"]
        if congruence(E, G_sub) != scaled or not all(integral(E, v, d) for v in bad):
            return False
    return True


def refcheck(cert):
    f, g = cert["f"], cert["g"]
    for tag, sub, sup in (("f_in_g", f, g), ("g_in_f", g, f)):
        record = cert[tag]
        if record["kind"] == "subform":
            if congruence(record["matrix"], gram(sup)) != gram(sub):
                return False
        elif not _cover(sub, sup, record):
            return False
    return True
