"""End-to-end proofs that two forms represent exactly the same integers.

A pair proof has one record per inclusion direction.  An inclusion
Q(g) <= Q(f) is established by a *cover proof*: a family of residue
classes that covers every residue g can attain, where each class either
has only good cosets (every g-value in the class transports to an
f-value of the same size) or carries an *escape argument* for its bad
cosets.

The escape argument for a class (d, a) is a matrix E with
E^t M_g E = d^2 M_g such that (1/d) u E^t is integral for every bad
coset u.  Iterating v -> (1/d) v E^t preserves g-values, so a value
g(v) = n with v stuck in bad cosets forever would visit infinitely many
vectors of the finite set {w : g(w) = n} - impossible once (1/d)E has
infinite order - unless v lies on an eigenline of some power of E.
Every power of such an E has one rational eigenline, the axis of E
(_mat.axis), so the values there form one family m * t^2 (m the value at
the primitive axis vector), swallowed by one witness f(w) = m, since
f(t w) = m t^2.  The witness is all a certificate records beside E.

Every route needs integer transforms T^t (2M_f) T = d^2 (2M_g): the
subform witness (d = 1), the good cosets and the escape argument.  Their
determinants give det(T)^2 det 2M_f = d^6 det 2M_g, so unless
det 2M_g / det 2M_f is a rational square there is no transform at any d
(isometry.find_transforms): no subform witness, and every coset of every
class is bad.  No escape can close such a class either.  A valid E would
keep the descent from any v of the class in bad cosets forever, so v
would lie on the axis of E; but v and v + d e_i (i = 1, 2, 3) are all in
the class, and they do not lie on one line through 0.  search_cover
therefore raises NoRationalTransform before it tries any class.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import _mat, fixtures
from .congruence import (
    CoverReport,
    GoodVectorReport,
    ResidueClass,
    attainable_residues,
    cover_check,
    precedes,
)
from .enumeration import representations, represented_mask
from .forms import QuadForm, Vector3, doubled_gram, evaluate, require_positive_definite
from .isometry import _det_ratio_is_square, is_isometric, scaled_automorphisms, subform_witness

AUTO_MODULI = (4, 8, 12, 24, 36, 48)
# the largest cover modulus the search reaches; explicit class lists and
# certificates are held to it
MAX_MODULUS = lcm(*AUTO_MODULI)


class ProofError(Exception):
    """Base class for proof construction failures."""


class CoverIncomplete(ProofError):
    def __init__(self, report: CoverReport):
        self.report = report
        super().__init__(
            f"classes miss attainable residues {report.uncovered} mod {report.modulus}"
        )


class ClassUnprovable(ProofError):
    def __init__(self, cls: ResidueClass, reason=""):
        self.cls = cls
        super().__init__(f"class ({cls.d},{cls.a}) resists both routes{': ' + reason if reason else ''}")


class NoRationalTransform(ProofError):
    """det 2M_sub / det 2M_sup is not a rational square: no transform at any d."""

    def __init__(self, sub: QuadForm, sup: QuadForm):
        self.sub, self.sup = sub, sup
        ratio = Fraction(_mat.det(doubled_gram(sub)), _mat.det(doubled_gram(sup)))
        super().__init__(
            f"det 2M_sub / det 2M_sup = {ratio.numerator}/{ratio.denominator} is not a "
            "rational square: no transform exists at any modulus"
        )


class NoEscapeMatrix(ProofError):
    """No scaled automorphism of g escapes a class."""


class MismatchAt(ProofError):
    """First integer represented by one form of a pair but not the other."""

    def __init__(self, n: int, f: QuadForm, g: QuadForm):
        self.n, self.f, self.g = int(n), f, g
        super().__init__(f"represented sets differ first at {n}")


@dataclass(frozen=True)
class EscapeArgument:
    """An escape matrix E and the one value family m t^2 it leaves.

    axis is the primitive axis vector of E (_mat.axis), base = g(axis) = m
    and witness satisfies f(witness) = base.
    """

    matrix: tuple
    axis: Vector3
    base: int
    witness: Vector3


@dataclass(frozen=True)
class SubformDirection:
    """Q(sub) <= Q(sup), witnessed by witness^t (2M_sup) witness = 2M_sub."""

    sub: QuadForm
    sup: QuadForm
    witness: tuple


@dataclass(frozen=True)
class ClassProof:
    cls: ResidueClass
    report: GoodVectorReport
    escape: EscapeArgument | None = None


@dataclass(frozen=True)
class CoverDirection:
    """Q(sub) <= Q(sup) via a covering family of residue-class proofs."""

    sub: QuadForm
    sup: QuadForm
    classes: tuple


@dataclass(frozen=True)
class PairProof:
    f: QuadForm
    g: QuadForm
    f_in_g: object  # SubformDirection | CoverDirection
    g_in_f: object
    empirical_bound: int


def evaluate_escape_matrix(f, g, cls, report, matrix):
    """Validate one candidate escape matrix.

    Returns an EscapeArgument when the matrix satisfies every requirement
    for the bad cosets of the report, otherwise the name of the first
    failed requirement ('integrality', 'finite_order', or ('base', m)
    when f does not represent the value m at the axis of the matrix).
    """
    d = cls.d
    # int64 cannot overflow: coset entries are below d, and the matrix is a
    # scaled automorphism, each column representing d^2 g_jj under g, so its
    # entries stay small
    E_t = np.asarray(matrix, dtype=np.int64).T
    for chunk in (report.bad_array[:64], report.bad_array[64:]):
        if ((chunk @ E_t) % d).any():
            return "integrality"
    if _mat.is_finite_order_scaled(matrix, d):
        return "finite_order"
    # Descent never leaves the class, so it needs no test: for a bad coset
    # u, w = (1/d) u E^t is integral and E^t (2M) E = d^2 (2M) gives
    # g(w) = g(u) = a (mod d); g(w + d k) - g(w) = d B(w, k) + d^2 g(k)
    # with B(w, k) integral, so w mod d is again a coset of the class.
    v = _mat.axis(matrix, d)
    base = evaluate(g, v)
    reps = representations(f, base)
    if not reps:
        return ("base", base)
    return EscapeArgument(matrix, Vector3(*v), base, reps[0])


def build_escape(f: QuadForm, g: QuadForm, cls: ResidueClass,
                 report: GoodVectorReport) -> EscapeArgument:
    """Find an escape argument for the bad cosets of a class.

    Scans the scaled automorphisms of g at modulus d in deterministic
    order and returns the first matrix passing every requirement.
    """
    if report.all_good:
        raise ValueError("build_escape requires a class with bad cosets")
    autos = scaled_automorphisms(g, cls.d)
    base_failure = None
    for matrix in autos.matrices:
        outcome = evaluate_escape_matrix(f, g, cls, report, matrix)
        if isinstance(outcome, EscapeArgument):
            return outcome
        if isinstance(outcome, tuple) and outcome[0] == "base":
            base_failure = outcome[1]
    reason = "" if base_failure is None else f"; axis value {base_failure} is not represented"
    raise NoEscapeMatrix(f"no scaled automorphism escapes class ({cls.d},{cls.a}){reason}")


def _prove_class(f, g, cls) -> ClassProof:
    report = precedes(f, g, cls)
    if report.all_good:
        return ClassProof(cls, report)
    try:
        escape = build_escape(f, g, cls, report)
    except ProofError as exc:
        raise ClassUnprovable(cls, str(exc)) from exc
    return ClassProof(cls, report, escape)


def prove_direction(f: QuadForm, g: QuadForm, classes) -> CoverDirection:
    """Prove Q(g) <= Q(f) with an explicit covering family of classes.

    Raises ValueError, before any search, when the lcm of the class moduli
    exceeds MAX_MODULUS: the checker would reject such a certificate.
    """
    classes = [cls if isinstance(cls, ResidueClass) else ResidueClass(*cls) for cls in classes]
    modulus = lcm(*(cls.d for cls in classes))
    if modulus > MAX_MODULUS:
        raise ValueError(f"lcm of class moduli {modulus} exceeds {MAX_MODULUS}")
    cover = cover_check(g, classes)
    if not cover.ok:
        raise CoverIncomplete(cover)
    return CoverDirection(sub=g, sup=f, classes=tuple(_prove_class(f, g, cls) for cls in classes))


def search_cover(f: QuadForm, g: QuadForm) -> CoverDirection:
    """Search for a covering family proving Q(g) <= Q(f).

    Moduli are tried in increasing order; within one modulus every
    residue that still has an uncovered lift is attempted, first as a pure
    good-vector class, then with an escape argument.  Every modulus divides
    L = lcm(AUTO_MODULI), so the uncovered residues are tracked as one
    mask over the residues g attains mod L.

    Raises NoRationalTransform before any class is tried when
    det 2M_g / det 2M_f is not a rational square: then no class can be
    proved by either route (module docstring).
    """
    require_positive_definite(f)
    require_positive_definite(g)
    if not _det_ratio_is_square(f, g):
        raise NoRationalTransform(g, f)
    L = lcm(*AUTO_MODULI)
    uncovered = np.zeros(L, dtype=bool)
    uncovered[list(attainable_residues(g, L))] = True
    accepted: list = []
    for d in AUTO_MODULI:
        for a in range(d):
            if not uncovered[a::d].any():
                continue
            try:
                accepted.append(_prove_class(f, g, ResidueClass(d, a)))
            except ClassUnprovable:
                continue
            uncovered[a::d] = False
            if not uncovered.any():
                return CoverDirection(sub=g, sup=f, classes=tuple(accepted))
    if accepted:
        raise CoverIncomplete(cover_check(g, [proof.cls for proof in accepted]))
    # no class was accepted: even the one residue mod 1 stays uncovered
    raise CoverIncomplete(CoverReport(False, 1, (0,), (0,)))


def _inclusion(sup: QuadForm, sub: QuadForm, classes):
    """Prove Q(sub) <= Q(sup): with the explicit classes when given, else by
    a subform witness when one exists, else by a searched cover."""
    if classes is not None:
        return prove_direction(sup, sub, classes)
    witness = subform_witness(sub, sup)
    if witness is not None:
        return SubformDirection(sub=sub, sup=sup, witness=witness)
    return search_cover(sup, sub)


def prove_pair(f: QuadForm, g: QuadForm, *, classes_g_in_f=None, classes_f_in_g=None,
               empirical_bound: int = 10**6) -> PairProof:
    """Prove Q(f) = Q(g): subform shortcut in either direction, covers otherwise.

    An explicit class list for a direction overrides its subform shortcut.
    The finished proof is cross-checked against exhaustive enumeration up
    to empirical_bound; a disagreement would be an implementation bug and
    raises MismatchAt at the first integer where the sets differ.
    """
    if empirical_bound < 0:
        raise ValueError("bound must be nonnegative")
    require_positive_definite(f)
    require_positive_definite(g)
    f_in_g = _inclusion(g, f, classes_f_in_g)
    g_in_f = _inclusion(f, g, classes_g_in_f)
    mf = represented_mask(f, empirical_bound)
    mg = represented_mask(g, empirical_bound)
    if not np.array_equal(mf, mg):
        raise MismatchAt(np.flatnonzero(mf != mg)[0], f, g)
    return PairProof(f, g, f_in_g, g_in_f, int(empirical_bound))


@dataclass(frozen=True)
class SetReport:
    set_id: str
    bound: int
    forms: tuple
    value_count: int
    isometric_pairs: tuple

    @property
    def all_non_isometric(self) -> bool:
        return not self.isometric_pairs


def verify_pairwise(forms, bound: int, jobs: int = 1):
    """Equal represented sets and pairwise non-isometry for a family of forms.

    Returns (value_count, isometric_pairs); raises MismatchAt on the first
    integer represented by one form but not another, and ValueError when
    forms is empty.
    """
    forms = tuple(forms)
    if not forms:
        raise ValueError("no forms")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            masks = list(pool.map(lambda fm: represented_mask(fm, bound), forms))
    else:
        masks = [represented_mask(fm, bound) for fm in forms]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if not np.array_equal(masks[i], masks[j]):
                n = int(np.flatnonzero(masks[i] != masks[j])[0])
                raise MismatchAt(n, forms[i], forms[j])
    isometric = tuple(
        (i, j)
        for i in range(len(forms))
        for j in range(i + 1, len(forms))
        if is_isometric(forms[i], forms[j]) is not None
    )
    return int(masks[0].sum()), isometric


def verify_table(set_id: str, bound: int = 10**6, scale_by: int = 2) -> SetReport:
    """Check one catalog set empirically: equal value sets, pairwise non-isometric.

    Raises MismatchAt on the first integer represented by one member but
    not another.
    """
    forms = fixtures.table_set(set_id, scale_by)
    value_count, isometric = verify_pairwise(forms, bound)
    return SetReport(set_id, int(bound), forms, value_count, isometric)


def kaplansky_family_pair(kind: str, a: int, b: int):
    """The conjectured same-representation pair of family iii or iv.

    iii: (a x^2 + b y^2 + b z^2 + b yz,  a x^2 + b y^2 + 3b z^2)
    iv:  (a x^2 + a y^2 + a z^2 + b yz + b xz + b xy,
          a x^2 + (2a-b) y^2 + (2a+b) z^2 + 2b xz)
    """
    a, b = int(a), int(b)
    if kind == "iii":
        pair = (QuadForm(a, b, b, b, 0, 0), QuadForm(a, b, 3 * b, 0, 0, 0))
    elif kind == "iv":
        pair = (QuadForm(a, a, a, b, b, b), QuadForm(a, 2 * a - b, 2 * a + b, 0, 2 * b, 0))
    else:
        raise ValueError(f"family kind must be 'iii' or 'iv', got {kind!r}")
    for form in pair:
        require_positive_definite(form)
    return pair
