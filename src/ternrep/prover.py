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
build_escape tests the scaled automorphisms of g, one (N, 3, 3) array in
set order, all at once: finite order from trace and determinant, then,
if any has infinite order, integrality on the bad cosets from the parts
of the class's bad groups (congruence._integral_on_bad).  Only the
survivors get an axis, a base and a witness.

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

emit writes a PairProof in the checker's format: CERT_VERSION, MAX_MODULUS
and encode come from certificate.py, which imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index

import numpy as np

from . import _mat, fixtures
from .certificate import CERT_VERSION, MAX_MODULUS, encode
from .congruence import (
    CoverReport,
    GoodVectorReport,
    ResidueClass,
    _integral_on_bad,
    attainable_residues,
    cover_check,
    precedes,
)
from .enumeration import _value_bits, representations, represented_mask
from .forms import QuadForm, Vector3, doubled_gram, evaluate, require_positive_definite
from .isometry import _det_ratio_is_square, is_isometric, scaled_automorphisms, subform_witness

# the moduli search_cover tries; their lcm is within MAX_MODULUS
AUTO_MODULI = (4, 8, 12, 24, 36, 48)


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


def _matrix_json(T):
    return [[int(x) for x in row] for row in T]


def _vec_json(v):
    return [int(x) for x in v]


def _class_json(proof) -> dict:
    used = proof.report.transforms.matrices[proof.report.cover]
    escape = None
    if proof.escape is not None:
        escape = {"matrix": _matrix_json(proof.escape.matrix),
                  "witness": _vec_json(proof.escape.witness)}
    return {
        "d": proof.cls.d,
        "a": proof.cls.a,
        "transforms": used.tolist(),
        "escape": escape,
    }


def _direction_json(direction) -> dict:
    if isinstance(direction, SubformDirection):
        return {"kind": "subform", "matrix": _matrix_json(direction.witness)}
    if isinstance(direction, CoverDirection):
        return {
            "kind": "cover",
            "classes": [
                _class_json(proof)
                for proof in sorted(direction.classes, key=lambda p: (p.cls.d, p.cls.a))
            ],
        }
    raise TypeError(f"unknown direction record {type(direction).__name__}")


def proof_to_dict(proof: PairProof) -> dict:
    return {
        "version": CERT_VERSION,
        "f": _vec_json(proof.f.coefficients),
        "g": _vec_json(proof.g.coefficients),
        "empirical_bound": int(proof.empirical_bound),
        "f_in_g": _direction_json(proof.f_in_g),
        "g_in_f": _direction_json(proof.g_in_f),
    }


def emit(proof: PairProof) -> bytes:
    """The canonical certificate bytes of a proof."""
    return encode(proof_to_dict(proof))


def _has_finite_order(E, d):
    """Bool array: whether (1/d)E has finite order, for each E of a stack laid
    out (3, 3, N), with E^t (2M) E = d^2 (2M) for a definite M.

    (1/d)E is an isometry of a definite form, so its eigenvalues are
    eps = det E / d^3 = +-1 and e^{+-i theta}, and tr E / d = eps + 2 cos theta:
    2 cos theta = t / d with t = tr E - eps d = tr E - det E / d^2 is
    rational.  Finite order makes e^{i theta} a root of unity, so 2 cos theta
    is an algebraic integer; being rational, it is an integer in {-2, ..., 2}.
    Conversely those values give e^{i theta} of order 1, 2, 3, 4 or 6, and
    (1/d)E, orthogonal for the form, is diagonalizable, so it has finite order.
    """
    # det E = +-d^3 by the defining identity, inside int64 for d < 2^21, so
    # the int64 determinant, exact mod 2^64 even where a product of entries
    # wraps, is exact
    t = E[0][0] + E[1][1] + E[2][2] - _mat.det(E) // (d * d)
    return (t % d == 0) & (abs(t // d) <= 2)


def _escape_candidates(autos, report):
    """Bool mask over autos.matrices, the scaled automorphisms E of g at
    modulus d: E makes every bad coset of the report integral and (1/d)E
    has infinite order."""
    infinite = ~_has_finite_order(autos.matrices.transpose(1, 2, 0), autos.d)
    if not infinite.any():  # no candidate, so build no kernel tables of the set
        return infinite
    integral = _integral_on_bad(autos, report)
    return np.unpackbits(integral, count=len(autos), bitorder="little").astype(bool) & infinite


def build_escape(f: QuadForm, g: QuadForm, cls: ResidueClass,
                 report: GoodVectorReport) -> EscapeArgument:
    """Find an escape argument for the bad cosets of a class: the first
    _escape_candidates survivor, in set order, whose axis value f represents."""
    if report.all_good:
        raise ValueError("build_escape requires a class with bad cosets")
    d = cls.d
    autos = scaled_automorphisms(g, d)
    base_failure = None
    for matrix in map(_mat.from_rows, autos.matrices[_escape_candidates(autos, report)]):
        # Descent never leaves the class, so it needs no test: for a bad coset
        # u, w = (1/d) u E^t is integral and E^t (2M) E = d^2 (2M) gives
        # g(w) = g(u) = a (mod d); g(w + d k) - g(w) = d B(w, k) + d^2 g(k)
        # with B(w, k) integral, so w mod d is again a coset of the class.
        v = _mat.axis(matrix, d)
        base = evaluate(g, v)
        reps = representations(f, base)
        if len(reps):
            return EscapeArgument(matrix, Vector3(*v), base, Vector3(*reps[0].tolist()))
        base_failure = base
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
    empirical_bound = index(empirical_bound)
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
    return PairProof(f, g, f_in_g, g_in_f, empirical_bound)


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

    Each form's values are kept packed, as the key (content, bitset) of
    _value_bits, and the keys are compared.  Only when two keys differ
    are the two bool masks built, to find the first differing integer:
    forms of different content can still agree at a small bound, and
    then nothing is raised.

    jobs is unused, kept so that callers passing a thread count still
    bind: the keys are built in one thread, because threads making the
    kernel's many short numpy calls mostly wait for each other's
    interpreter lock.
    """
    forms = tuple(forms)
    if not forms:
        raise ValueError("no forms")
    keys = [_value_bits(fm, bound) for fm in forms]
    # all value sets agree iff each agrees with the first, and the first
    # pair (i, j) that differs always has i = 0; equal keys mean equal values
    k, bits = keys[0]
    for j, (kj, bits_j) in enumerate(keys[1:], 1):
        if kj == k and np.array_equal(bits, bits_j):
            continue
        mf, mg = represented_mask(forms[0], bound), represented_mask(forms[j], bound)
        if not np.array_equal(mf, mg):
            raise MismatchAt(np.flatnonzero(mf != mg)[0], forms[0], forms[j])
    isometric = tuple(
        (i, j)
        for i in range(len(forms))
        for j in range(i + 1, len(forms))
        if is_isometric(forms[i], forms[j]) is not None
    )
    return int(np.count_nonzero(np.unpackbits(bits))), isometric


def verify_table(set_id: str, bound: int = 10**6) -> SetReport:
    """Check one catalog set, at the catalog scale: equal value sets, pairwise non-isometric.

    Raises MismatchAt on the first integer represented by one member but
    not another.
    """
    bound = index(bound)
    forms = fixtures.table_set(set_id, fixtures.CATALOG_SCALE)
    value_count, isometric = verify_pairwise(forms, bound)
    return SetReport(set_id, bound, forms, value_count, isometric)


def kaplansky_family_pair(kind: str, a: int, b: int):
    """The conjectured same-representation pair of family iii or iv.

    iii: (a x^2 + b y^2 + b z^2 + b yz,  a x^2 + b y^2 + 3b z^2)
    iv:  (a x^2 + a y^2 + a z^2 + b yz + b xz + b xy,
          a x^2 + (2a-b) y^2 + (2a+b) z^2 + 2b xz)
    """
    a, b = index(a), index(b)
    if kind == "iii":
        pair = (QuadForm(a, b, b, b, 0, 0), QuadForm(a, b, 3 * b, 0, 0, 0))
    elif kind == "iv":
        pair = (QuadForm(a, a, a, b, b, b), QuadForm(a, 2 * a - b, 2 * a + b, 0, 2 * b, 0))
    else:
        raise ValueError(f"family kind must be 'iii' or 'iv', got {kind!r}")
    for form in pair:
        require_positive_definite(form)
    return pair
