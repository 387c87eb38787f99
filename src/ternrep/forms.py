"""Integral ternary quadratic forms and their exact Gram arithmetic.

A form is f(x, y, z) = a x^2 + b y^2 + c z^2 + r yz + s xz + t xy with
integer coefficients.  Its Gram matrix has half-integer off-diagonal
entries, so all identities in this package are checked on the *doubled*
Gram matrix

    2 M_f = [[2a, t, s], [t, 2b, r], [s, r, 2c]],

which is integral.  Row-vector convention throughout: f(v) = v M_f v^t.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import NamedTuple

from . import _mat


class NotPositiveDefinite(ValueError):
    """Raised when an operation requires a positive definite form."""


class Vector3(NamedTuple):
    x: int
    y: int
    z: int


@dataclass(frozen=True, order=True)
class QuadForm:
    """Coefficients (a, b, c, r, s, t) of a x^2 + b y^2 + c z^2 + r yz + s xz + t xy."""

    a: int
    b: int
    c: int
    r: int
    s: int
    t: int

    def __post_init__(self):
        for name in ("a", "b", "c", "r", "s", "t"):
            object.__setattr__(self, name, index(getattr(self, name)))

    @classmethod
    def from_string(cls, text: str) -> "QuadForm":
        """Parse the six comma-separated integer coefficients "a,b,c,r,s,t"."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected 6 comma-separated coefficients, got {text!r}")
        return cls(*(int(p) for p in parts))

    @property
    def coefficients(self) -> tuple:
        return (self.a, self.b, self.c, self.r, self.s, self.t)

    def __str__(self):
        return ",".join(str(c) for c in self.coefficients)

    def polynomial(self) -> str:
        """Human-readable polynomial, e.g. '4x^2 + 7y^2 + 25z^2 - 4yz - 2xz - 2xy'."""
        parts = []
        for coeff, mono in zip(self.coefficients, ("x^2", "y^2", "z^2", "yz", "xz", "xy")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            term = mono if mag == 1 else f"{mag}{mono}"
            parts.append((sign, term))
        if not parts:
            return "0"
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def __call__(self, v) -> int:
        return evaluate(self, v)


def evaluate(form: QuadForm, v) -> int:
    """Value of the form at an integer vector; >= 0 for definite forms."""
    x, y, z = (index(v[0]), index(v[1]), index(v[2]))
    return (
        form.a * x * x
        + form.b * y * y
        + form.c * z * z
        + form.r * y * z
        + form.s * x * z
        + form.t * x * y
    )


def doubled_gram(form: QuadForm):
    """The integral matrix 2 M_f; f(v) = v (2 M_f) v^t / 2."""
    a, b, c, r, s, t = form.coefficients
    return ((2 * a, t, s), (t, 2 * b, r), (s, r, 2 * c))


def is_positive_definite(form: QuadForm) -> bool:
    """Leading-principal-minor test on the doubled Gram matrix."""
    G = doubled_gram(form)
    m1 = G[0][0]
    m2 = G[0][0] * G[1][1] - G[0][1] * G[0][1]
    m3 = _mat.det(G)
    return m1 > 0 and m2 > 0 and m3 > 0


def require_positive_definite(form: QuadForm) -> None:
    if not is_positive_definite(form):
        raise NotPositiveDefinite(f"form {form} is not positive definite")


def scale(form: QuadForm, m: int) -> QuadForm:
    """The form m*f; its represented set is m times the represented set of f."""
    m = index(m)
    if m < 1:
        raise ValueError("scale factor must be a positive integer")
    return QuadForm(*(m * c for c in form.coefficients))


def change_of_basis(form: QuadForm, U) -> QuadForm:
    """The form with Gram matrix U^t M U, i.e. v |-> form(v U^t)."""
    G = _mat.congruence(_mat.from_rows(U), doubled_gram(form))
    for i in range(3):
        if G[i][i] % 2 != 0:
            raise ValueError("transformed Gram matrix is not a form matrix")
    return QuadForm(
        G[0][0] // 2, G[1][1] // 2, G[2][2] // 2, G[1][2], G[0][2], G[0][1]
    )
