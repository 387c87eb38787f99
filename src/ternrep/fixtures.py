"""Named catalog of the fifteen form sets whose members share representation sets.

Set S<i> holds two (or, for S13-S15, four) positive definite ternary
forms, addressed as "S1a", "S1b", ..., "S15d".  The aliases "S4f"/"S4g",
"S6f"/"S6g", "S7f"/"S7g", "S8f"/"S8g" are the versions at CATALOG_SCALE
used throughout the proof machinery (f is the first-listed entry of its set).
"""

from __future__ import annotations

from .forms import QuadForm, scale

_RAW = {
    "S1": [(5, 8, 8, -5, -1, -4), (5, 5, 8, -1, -4, -2)],
    "S2": [(3, 4, 7, -1, 0, 0), (3, 4, 7, 4, 3, 3)],
    "S3": [(1, 4, 7, -1, 0, 0), (1, 4, 5, -1, -1, 0)],
    "S4": [(4, 7, 25, -4, -2, -2), (4, 7, 7, 5, 2, 2)],
    "S5": [(2, 6, 41, -3, -1, 0), (2, 2, 41, 1, 2, 2)],
    "S6": [(2, 6, 14, -3, -1, 0), (2, 2, 14, 1, 2, 2)],
    "S7": [(2, 4, 8, 4, 1, 1), (2, 2, 4, -1, -2, 0)],
    "S8": [(5, 5, 8, 0, -4, -3), (5, 7, 7, 6, 1, 5)],
    "S9": [(3, 3, 7, 1, 2, 1), (3, 5, 5, 3, 1, 3)],
    "S10": [(5, 5, 8, -1, -2, -4), (5, 5, 6, 0, -3, -2)],
    "S11": [(2, 4, 7, 0, -1, -1), (2, 4, 7, 4, 2, 1)],
    "S12": [(4, 6, 7, 3, 2, 3), (4, 4, 6, 0, -3, -2)],
    "S13": [
        (5, 12, 28, 0, -4, -4),
        (5, 12, 24, -8, 0, -4),
        (5, 12, 21, -4, -2, -4),
        (5, 12, 12, 0, -4, -4),
    ],
    "S14": [
        (3, 5, 7, -2, 0, -2),
        (3, 5, 6, 0, -2, -2),
        (3, 5, 6, 4, 2, 2),
        (3, 3, 5, -2, -2, 0),
    ],
    "S15": [
        (3, 5, 5, 5, 2, 3),
        (3, 3, 5, -1, -2, -1),
        (3, 3, 5, 2, 3, 1),
        (3, 3, 3, 1, 1, 3),
    ],
}

TABLE: dict = {
    sid: tuple(QuadForm(*coeffs) for coeffs in rows) for sid, rows in _RAW.items()
}

SET_IDS = tuple(TABLE)

# the scale of the forms the proofs and the table sweep use
CATALOG_SCALE = 2

REGISTRY: dict = {}
for _sid, _forms in TABLE.items():
    for _letter, _form in zip("abcd", _forms):
        REGISTRY[f"{_sid}{_letter}"] = _form
# scaled pairs used by the worked proofs; "f" is the first-listed form
for _sid in ("S4", "S6", "S7", "S8"):
    REGISTRY[f"{_sid}f"] = scale(TABLE[_sid][0], CATALOG_SCALE)
    REGISTRY[f"{_sid}g"] = scale(TABLE[_sid][1], CATALOG_SCALE)


def named_form(name: str) -> QuadForm:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown fixture name {name!r} (expected e.g. 'S4a' or 'S4f')") from None


def resolve_form(text: str) -> QuadForm:
    """A fixture name like 'S4f', or literal coefficients 'a,b,c,r,s,t'."""
    if text in REGISTRY:
        return REGISTRY[text]
    if "," in text:
        return QuadForm.from_string(text)
    raise KeyError(f"unknown form {text!r}: not a fixture name and not six coefficients")


def table_set(set_id: str, scale_by: int = 1) -> tuple:
    forms = TABLE.get(set_id)
    if forms is None:
        raise KeyError(f"unknown set id {set_id!r} (expected 'S1'..'S15')")
    if scale_by == 1:
        return forms
    return tuple(scale(f, scale_by) for f in forms)
