from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrep import (
    QuadForm,
    change_of_basis,
    doubled_gram,
    find_transforms,
    is_isometric,
    is_positive_definite,
    named_form,
    scaled_automorphisms,
    subform_witness,
    table_set,
)
from ternrep import _mat, isometry

T1 = ((4, 2, 2), (0, 4, 2), (0, 0, 2))
TTILDE = ((12, 6, 2), (0, 0, 12), (0, -12, -8))
S4_ESCAPE = ((-12, -6, -2), (0, 0, -12), (0, 12, 8))
S4_SUBFORM_T = ((1, 0, 0), (0, 0, -2), (0, -1, 1))


def _check_identity(T, f, g, d):
    lhs = _mat.congruence(T, doubled_gram(f))
    rhs = _mat.scalar_mul(d * d, doubled_gram(g))
    assert lhs == rhs


def test_transform_set_counts(s4):
    f, g = s4
    ts4 = find_transforms(f, g, 4)
    assert len(ts4) == 8 and ts4.complete
    assert T1 in ts4
    ts12 = find_transforms(f, g, 12)
    assert len(ts12) == 144 and ts12.complete


def test_every_transform_satisfies_identity(s4):
    f, g = s4
    for T in find_transforms(f, g, 4):
        _check_identity(T, f, g, 4)
    for T in find_transforms(g, g, 12).matrices[:20]:
        _check_identity(T, g, g, 12)


def test_identity_automorphism():
    form = named_form("S9b")
    ts = find_transforms(form, form, 1)
    assert _mat.IDENTITY in ts
    assert _mat.scalar_mul(-1, _mat.IDENTITY) in ts


def test_closed_under_automorphism_composition(s4):
    f, g = s4
    autos = find_transforms(f, f, 1)
    ts = set(find_transforms(f, g, 4).matrices)
    for U in autos:
        for T in ts:
            assert _mat.mat_mul(U, T) in ts


def test_empty_set_is_valid_answer():
    f = named_form("S1a")
    g = named_form("S5b")
    ts = find_transforms(f, g, 1)
    assert len(ts) == 0 and ts.complete


small_forms = st.builds(
    QuadForm,
    *[st.integers(1, 5)] * 3,
    *[st.integers(-5, 5)] * 3,
).filter(is_positive_definite)

unit_entries = st.lists(st.integers(-1, 1), min_size=9, max_size=9)


@st.composite
def form_pairs(draw):
    """A random pair, or a form and one of its sublattices (square ratio det(U)^2)."""
    f = draw(small_forms)
    if draw(st.booleans()):
        return f, draw(small_forms)
    U = draw(unit_entries.map(lambda e: (e[0:3], e[3:6], e[6:9])).filter(_mat.det))
    return f, change_of_basis(f, U)


def _full_search(f, g, d):
    """find_transforms with the determinant precondition passing for every pair."""
    find_transforms.cache_clear()
    try:
        with mock.patch.object(isometry, "_det_ratio_is_square", lambda *forms: True):
            return find_transforms(f, g, d)
    finally:
        find_transforms.cache_clear()


@settings(max_examples=60, deadline=None)
@given(form_pairs(), st.integers(1, 12))
def test_determinant_precondition_is_exact(pair, d):
    f, g = pair
    full = _full_search(f, g, d)
    assert find_transforms(f, g, d) == full
    if not isometry._det_ratio_is_square(f, g):
        assert len(full) == 0 and full.complete


def test_square_ratio_catalog_sets_pass_the_precondition():
    for sid in ("S4", "S5", "S6", "S7", "S8", "S9"):
        f, g = table_set(sid, 2)
        assert isometry._det_ratio_is_square(f, g) and isometry._det_ratio_is_square(g, f)


def test_non_square_pairs_answer_without_enumeration():
    f, g = named_form("S1a"), named_form("S1b")
    find_transforms.cache_clear()
    with mock.patch.object(isometry, "representations", side_effect=AssertionError):
        for d in (1, 12, 144):
            ts = find_transforms(f, g, d)
            assert len(ts) == 0 and ts.complete
        assert subform_witness(f, g) is None and subform_witness(g, f) is None
        assert is_isometric(f, g) is None


def test_subform_witness_fixed_matrix(s4):
    f, g = s4
    # the displayed witness itself must verify T^t (2M_g) T = 2M_f
    assert _mat.congruence(S4_SUBFORM_T, doubled_gram(g)) == doubled_gram(f)


@pytest.mark.parametrize("sid", ["S4", "S6", "S7"])
def test_subform_witness_found(sid):
    f = named_form(f"{sid}f")
    g = named_form(f"{sid}g")
    T = subform_witness(f, g)
    assert T is not None
    assert _mat.congruence(T, doubled_gram(g)) == doubled_gram(f)


def test_subform_witness_trivial_and_absent(s4, s8):
    f, _ = s4
    assert subform_witness(f, f) == _mat.IDENTITY
    f8, g8 = s8
    assert subform_witness(f8, g8) is None
    assert subform_witness(g8, f8) is None


def test_is_isometric(s4):
    f, g = s4
    assert is_isometric(f, f) == _mat.IDENTITY
    assert is_isometric(f, g) is None
    U = ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    moved = change_of_basis(f, U)
    T = is_isometric(f, moved)
    assert T is not None and _mat.det(T) in (1, -1)
    assert _mat.congruence(T, doubled_gram(f)) == doubled_gram(moved)


def test_scaled_automorphisms(s4):
    _, g = s4
    ts = scaled_automorphisms(g, 12)
    assert ts is find_transforms(g, g, 12)  # one search, one cache entry
    assert TTILDE in ts
    Gg = np.array(doubled_gram(g), dtype=np.int64)
    for K in ts.matrices[:25]:
        K = np.array(K, dtype=np.int64)
        assert np.array_equal(K.T @ Gg @ K, 144 * Gg)
    small = scaled_automorphisms(g, 1)
    assert _mat.IDENTITY in small and _mat.scalar_mul(-1, _mat.IDENTITY) in small


# eigen data of a scaled isometry: its axis and whether T/d has finite order

def test_eigen_data_escape_matrix():
    assert _mat.axis(TTILDE, 12) == (1, 0, 0)
    assert _mat.det(TTILDE) // 12**2 == 12
    assert _mat.is_finite_order_scaled(TTILDE, 12) is False


def test_eigen_data_identity_and_diagonal():
    assert _mat.is_finite_order_scaled(_mat.IDENTITY, 1) is True


def test_eigen_data_rotation_has_finite_order():
    quarter_turn = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
    assert _mat.axis(quarter_turn, 1) == (0, 0, 1)
    assert _mat.det(quarter_turn) == 1
    assert _mat.is_finite_order_scaled(quarter_turn, 1) is True


def test_eigen_data_huge_determinant_powers():
    # sixth power of the escape matrix: determinant ~ 2.6e19
    P = _mat.IDENTITY
    for _ in range(6):
        P = _mat.mat_mul(P, TTILDE)
    assert _mat.axis(P, 12**6) == (1, 0, 0)
    assert _mat.det(P) // 12**12 == 12**6


def test_eigen_data_negative_eigenvalue(s4):
    # the escape matrix of the S4 certificate has det E / d^2 = -12
    _, g = s4
    _check_identity(S4_ESCAPE, g, g, 12)
    assert _mat.axis(S4_ESCAPE, 12) == (1, 0, 0)
    assert _mat.det(S4_ESCAPE) // 12**2 == -12
    assert _mat.is_finite_order_scaled(S4_ESCAPE, 12) is False


def test_find_transforms_rejects_bad_input():
    f = named_form("S4f")
    with pytest.raises(ValueError):
        find_transforms(f, f, 0)


@pytest.mark.parametrize("sid", ["S4", "S6", "S7"])
def test_subform_implies_value_containment(sid):
    from ternrep import represented_mask

    f = named_form(f"{sid}f")
    g = named_form(f"{sid}g")
    assert subform_witness(f, g) is not None
    mf = represented_mask(f, 10**4)
    mg = represented_mask(g, 10**4)
    assert not np.any(mf & ~mg)  # every value of f is a value of g


def test_isometric_forms_share_theta():
    from ternrep import theta

    f = named_form("S10b")
    moved = change_of_basis(f, ((1, 0, 1), (0, 1, 1), (0, 0, 1)))
    assert is_isometric(f, moved) is not None
    assert np.array_equal(theta(f, 10**4).coeffs, theta(moved, 10**4).coeffs)
