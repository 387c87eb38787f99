"""Complete search for integral transformations between two forms.

find_transforms(f, g, d) returns every integer matrix T with

    T^t (2 M_f) T = d^2 (2 M_g).

Column j of such a T is a representation of d^2 * (j-th diagonal
coefficient of g) by f, and pairs of columns must hit the prescribed
doubled inner products.  Candidates therefore come from the complete
representation lists of the enumeration module, and a backtracking scan
over column triples (smallest target norm first) cannot miss a solution.

Taking determinants of the defining identity gives

    det(T)^2 * det 2M_f = d^6 * det 2M_g,

so no T exists at any d unless det 2M_g / det 2M_f is the square of a
rational number, that is unless det 2M_f * det 2M_g is a perfect square.
find_transforms tests this first and answers the other pairs without a
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from . import _mat
from .enumeration import representations
from .forms import QuadForm, doubled_gram, require_positive_definite

# backtracking budget of the scaled-automorphism search; the largest such
# search on the catalog pairs and their basis changes takes ~1,500 nodes
_ESCAPE_NODES = 10**6


@dataclass(frozen=True)
class TransformSet:
    """All integer T with T^t (2M_f) T = d^2 (2M_g), lexicographically sorted."""

    f: QuadForm
    g: QuadForm
    d: int
    matrices: tuple = field(default=())
    complete: bool = True

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __contains__(self, T):
        return _mat.from_rows(T) in self.matrices


def _search_columns(gram_f, crosses, candidate_lists, max_nodes):
    """Backtrack over column tuples; returns (columns list, complete flag).

    candidate_lists[j] holds every vector of the right norm for column j;
    crosses[(i, j)] is the required doubled inner product of columns i, j.
    """
    G = np.asarray(gram_f, dtype=np.int64)
    arrays = [np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in candidate_lists]
    found = []
    nodes = 0
    budget = max_nodes if max_nodes is not None else float("inf")
    A1, A2 = arrays[1], arrays[2]
    for c0 in arrays[0]:
        nodes += 1
        if nodes > budget:
            return found, False
        w0 = G @ c0
        keep1 = A1 @ w0 == crosses[(0, 1)]
        if not keep1.any():
            continue
        pre2 = A2 @ w0 == crosses[(0, 2)]
        if not pre2.any():
            continue
        B2 = A2[pre2]
        for c1 in A1[keep1]:
            nodes += 1
            if nodes > budget:
                return found, False
            w1 = G @ c1
            keep2 = B2 @ w1 == crosses[(1, 2)]
            for c2 in B2[keep2]:
                nodes += 1
                if nodes > budget:
                    return found, False
                found.append((c0, c1, c2))
    return found, True


def _det_ratio_is_square(f: QuadForm, g: QuadForm) -> bool:
    """Whether det 2M_g / det 2M_f is the square of a rational number.

    Both determinants are positive for definite forms, and the ratio is a
    rational square exactly when their product is a perfect square.
    """
    product = _mat.det(doubled_gram(f)) * _mat.det(doubled_gram(g))
    return isqrt(product) ** 2 == product


@lru_cache(maxsize=256)
def find_transforms(f: QuadForm, g: QuadForm, d: int, max_nodes=None) -> TransformSet:
    """The complete set of T with T^t (2M_f) T = d^2 (2M_g); may be empty.

    When det 2M_g / det 2M_f is not a rational square the set is empty at
    every d (module docstring), and the empty, complete set is returned
    before any representation is enumerated.
    """
    require_positive_definite(f)
    require_positive_definite(g)
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    if not _det_ratio_is_square(f, g):
        return TransformSet(f, g, d)
    Gf = doubled_gram(f)
    Gg = doubled_gram(g)
    diag = (g.a, g.b, g.c)
    order = sorted(range(3), key=lambda j: (diag[j], j))  # small norms first
    crosses = {
        (i, j): d * d * Gg[order[i]][order[j]]
        for i in range(3)
        for j in range(i + 1, 3)
    }
    reps = {m: representations(f, m) for m in {d * d * g_jj for g_jj in diag}}
    cands = [reps[d * d * diag[j]] for j in order]
    if not all(cands):
        return TransformSet(f, g, d)
    cols, complete = _search_columns(Gf, crosses, cands, max_nodes)
    mats = []
    for tri in cols:
        T = [[0] * 3 for _ in range(3)]
        for slot, j in enumerate(order):
            for i in range(3):
                T[i][j] = int(tri[slot][i])
        mats.append(_mat.from_rows(T))
    return TransformSet(f, g, d, tuple(sorted(mats)), complete)


def subform_witness(f: QuadForm, g: QuadForm):
    """Some T with T^t (2M_g) T = 2M_f, or None.

    Existence makes f a subform of g: f(v) = g(v T^t), so every value of
    f is a value of g.
    """
    if doubled_gram(f) == doubled_gram(g):
        return _mat.IDENTITY
    ts = find_transforms(g, f, 1)
    return ts.matrices[0] if ts.matrices else None


def is_isometric(f: QuadForm, g: QuadForm):
    """A unimodular T with T^t (2M_f) T = 2M_g, or None.

    None is conclusive: the candidate search is exhaustive.
    """
    if doubled_gram(f) == doubled_gram(g):
        return _mat.IDENTITY
    for T in find_transforms(f, g, 1).matrices:
        if _mat.det(T) in (1, -1):
            return T
    return None


def scaled_automorphisms(g: QuadForm, d: int) -> TransformSet:
    """All T with T^t (2M_g) T = d^2 (2M_g), within the _ESCAPE_NODES budget."""
    return find_transforms(g, g, d, max_nodes=_ESCAPE_NODES)
