"""Complete search for integral transformations between two forms.

find_transforms(f, g, d) returns every integer matrix T with

    T^t (2 M_f) T = d^2 (2 M_g).

Column j of such a T is a representation of d^2 * (j-th diagonal
coefficient of g) by f, and pairs of columns must hit the prescribed
doubled inner products.  Candidates therefore come from the complete
representation lists of the enumeration module, all three norms from one
walk of the rows (_vectors_by_norm), and a triple of them is a solution
exactly when each of its three pairs hits its target (_search_columns):
none is missed.

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
from operator import index

import numpy as np

from . import _mat
from .enumeration import _vectors_by_norm
from .forms import QuadForm, doubled_gram, require_positive_definite


@dataclass(frozen=True)
class TransformSet:
    """All integer T with T^t (2M_f) T = d^2 (2M_g), lexicographically sorted.

    matrices is a read-only (N, 3, 3) int64 array.  The set is closed under
    T -> -T, which reverses lexicographic order, and holds no zero matrix:
    N is even and matrices[N - 1 - i] == -matrices[i], so the kernel tables
    of congruence compute the first half only.  It is left out of
    equality and hashing: find_transforms builds the one set of each
    (f, g, d), so the triple names it.
    """

    f: QuadForm
    g: QuadForm
    d: int
    matrices: np.ndarray = field(compare=False, hash=False)
    # every set is complete, since the search has no budget; the constant
    # stays for readers of the attribute, such as the benchmark's tracer
    complete = True

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __contains__(self, T):
        return bool((self.matrices == np.reshape(T, (3, 3))).all(axis=(1, 2)).any())


def _search_columns(gram_f, targets, candidate_lists):
    """Every column triple (c0, c1, c2) with c_i 2M_f c_j = targets[i][j], as (N, 3, 3).

    candidate_lists[j] is the (n_j, 3) int64 array of every vector of the
    right norm for column j.  Tables P01 and P02 mark the pairs (c0, c1) and
    (c0, c2) that hit their targets, read row-major by flatnonzero (a 2-D
    np.nonzero is slower).  Each marked (c0, c1) is expanded over the c2 of
    c0, one run of P02's pairs, and kept when c1 2M_f c2 hits its target:
    the triples marked in all three pairs, by (c0, c1) then c2, no (c1, c2) table.
    """
    G = np.asarray(gram_f, dtype=np.int64)
    A0, A1, A2 = candidate_lists
    W0 = A0 @ G
    i0, i1 = np.divmod(np.flatnonzero(W0 @ A1.T == targets[0][1]), len(A1))
    j0, j2 = np.divmod(np.flatnonzero(W0 @ A2.T == targets[0][2]), len(A2))
    first = np.searchsorted(j0, i0)  # the run of c0's c2 in j2
    runs = np.searchsorted(j0, i0, side="right") - first
    c2 = j2[np.arange(runs.sum()) + np.repeat(first - np.cumsum(runs) + runs, runs)]
    c0, c1 = np.repeat(i0, runs), np.repeat(i1, runs)
    hit = np.einsum("ij,ij->i", (A1 @ G)[c1], A2[c2]) == targets[1][2]
    return np.stack((A0[c0[hit]], A1[c1[hit]], A2[c2[hit]]), axis=1)


def _det_ratio_is_square(f: QuadForm, g: QuadForm) -> bool:
    """Whether det 2M_g / det 2M_f is the square of a rational number.

    Both determinants are positive for definite forms, and the ratio is a
    rational square exactly when their product is a perfect square.
    """
    product = _mat.det(doubled_gram(f)) * _mat.det(doubled_gram(g))
    return isqrt(product) ** 2 == product


@lru_cache(maxsize=256)
def find_transforms(f: QuadForm, g: QuadForm, d: int) -> TransformSet:
    """The complete set of T with T^t (2M_f) T = d^2 (2M_g); may be empty.

    When det 2M_g / det 2M_f is not a rational square the set is empty at
    every d (module docstring) and is returned before any row is walked.
    """
    require_positive_definite(f)
    require_positive_definite(g)
    d = index(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    if not _det_ratio_is_square(f, g):
        return TransformSet(f, g, d, np.empty((0, 3, 3), dtype=np.int64))
    diag = (g.a, g.b, g.c)
    order = sorted(range(3), key=lambda j: (diag[j], j))  # small norms first
    norms = sorted({d * d * g_jj for g_jj in diag})
    reps = dict(zip(norms, _vectors_by_norm(f, norms)))
    cands = [reps[d * d * diag[j]] for j in order]
    G = doubled_gram(g)
    targets = [[d * d * G[i][j] for j in order] for i in order]
    # column j of T is the solution column in slot order.index(j)
    T = _search_columns(doubled_gram(f), targets, cands)[:, np.argsort(order)].transpose(0, 2, 1)
    T = T[np.lexsort(T.reshape(-1, 9).T[::-1])]  # lexsort's last key is the primary one
    T.setflags(write=False)
    return TransformSet(f, g, d, T)


def subform_witness(f: QuadForm, g: QuadForm):
    """Some T with T^t (2M_g) T = 2M_f, or None.

    Existence makes f a subform of g: f(v) = g(v T^t), so every value of
    f is a value of g.
    """
    if doubled_gram(f) == doubled_gram(g):
        return _mat.IDENTITY
    ts = find_transforms(g, f, 1)
    return _mat.from_rows(ts.matrices[0]) if len(ts) else None


def is_isometric(f: QuadForm, g: QuadForm):
    """A unimodular T with T^t (2M_f) T = 2M_g, or None.

    Every T with T^t (2M_f) T = 2M_g has det(T)^2 det 2M_f = det 2M_g, so
    all of them are unimodular when the determinants agree and none is
    otherwise, so the determinants are compared before any search.  None
    is conclusive: the candidate search is exhaustive.
    """
    if _mat.det(doubled_gram(f)) != _mat.det(doubled_gram(g)):
        return None
    return subform_witness(g, f)


def scaled_automorphisms(g: QuadForm, d: int) -> TransformSet:
    """All T with T^t (2M_g) T = d^2 (2M_g): the complete set find_transforms(g, g, d)."""
    return find_transforms(g, g, d)
