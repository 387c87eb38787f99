import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrep import (
    NotPositiveDefinite,
    QuadForm,
    ResidueClass,
    TABLE,
    change_of_basis,
    doubled_gram,
    evaluate,
    find_transforms,
    is_positive_definite,
    kaplansky_family_pair,
    named_form,
    prove_pair,
    representations,
    represented_mask,
    theta,
    verify_table,
)
from ternrep import _mat
from ternrep.fixtures import REGISTRY
from ternrep.forms import Vector3, require_positive_definite, scale


def test_evaluate_worked_values(s4):
    f, g = s4
    assert evaluate(g, (1, 4, 2)) == 392
    assert evaluate(f, (4, 5, 1)) == 392
    assert evaluate(f, (0, 0, 0)) == 0


def test_evaluate_matches_gram_quadratic_form():
    rng = random.Random(7)
    forms = [named_form(n) for n in ("S1a", "S4f", "S8g", "S15d")]
    for form in forms:
        G = doubled_gram(form)
        for _ in range(50):
            v = [rng.randint(-9, 9) for _ in range(3)]
            doubled = sum(v[i] * G[i][j] * v[j] for i in range(3) for j in range(3))
            assert doubled == 2 * evaluate(form, v)


def test_evaluate_central_symmetry():
    rng = random.Random(11)
    form = named_form("S4g")
    for _ in range(50):
        v = [rng.randint(-20, 20) for _ in range(3)]
        assert evaluate(form, v) == evaluate(form, [-c for c in v])


def test_positive_definite_examples():
    assert is_positive_definite(QuadForm(1, 1, 1, 0, 0, 0))
    assert not is_positive_definite(QuadForm(1, 1, 1, 0, 0, 3))
    for form in REGISTRY.values():
        assert is_positive_definite(form)


def test_positive_definite_matches_small_box_positivity():
    definite = QuadForm(1, 1, 1, 0, 0, 0)
    indefinite = QuadForm(1, 1, 1, 0, 0, 3)
    box = [
        (x, y, z)
        for x in range(-10, 11)
        for y in range(-10, 11)
        for z in range(-10, 11)
        if (x, y, z) != (0, 0, 0)
    ]
    assert all(evaluate(definite, v) > 0 for v in box)
    assert any(evaluate(indefinite, v) <= 0 for v in box)
    with pytest.raises(NotPositiveDefinite):
        require_positive_definite(indefinite)


def test_scale_examples():
    assert scale(QuadForm(4, 7, 25, -4, -2, -2), 2) == QuadForm(8, 14, 50, -8, -4, -4)
    assert scale(QuadForm(2, 6, 14, -3, -1, 0), 2) == QuadForm(4, 12, 28, -6, -2, 0)
    form = named_form("S9a")
    assert scale(form, 1) == form
    with pytest.raises(ValueError):
        scale(form, 0)


def test_scale_multiplies_values():
    rng = random.Random(3)
    form = named_form("S6b")
    for m in (2, 3, 5):
        scaled = scale(form, m)
        for _ in range(30):
            v = [rng.randint(-8, 8) for _ in range(3)]
            assert evaluate(scaled, v) == m * evaluate(form, v)


def test_doubled_gram_examples(s4):
    f, g = s4
    assert doubled_gram(f) == ((16, -4, -4), (-4, 28, -8), (-4, -8, 100))
    assert doubled_gram(g) == ((16, 4, 4), (4, 28, 10), (4, 10, 28))
    assert doubled_gram(QuadForm(1, 1, 1, 0, 0, 0)) == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_gram_is_symmetric():
    for form in TABLE["S13"]:
        G = doubled_gram(form)
        assert all(G[i][j] == G[j][i] for i in range(3) for j in range(3))


def test_string_round_trip():
    form = named_form("S12b")
    assert QuadForm.from_string(str(form)) == form
    assert QuadForm.from_string("4, 7, 25, -4, -2, -2") == QuadForm(4, 7, 25, -4, -2, -2)
    with pytest.raises(ValueError):
        QuadForm.from_string("1,2,3")


def test_polynomial_rendering():
    assert QuadForm(4, 7, 25, -4, -2, -2).polynomial() == "4x^2 + 7y^2 + 25z^2 - 4yz - 2xz - 2xy"
    assert QuadForm(1, 1, 3, 0, 0, 0).polynomial() == "x^2 + y^2 + 3z^2"


def test_change_of_basis_preserves_values():
    form = named_form("S4g")
    U = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    moved = change_of_basis(form, U)
    rng = random.Random(5)
    for _ in range(40):
        v = tuple(rng.randint(-6, 6) for _ in range(3))
        image = tuple(sum(U[i][j] * v[j] for j in range(3)) for i in range(3))
        assert evaluate(moved, v) == evaluate(form, image)


def test_vector3_is_a_tuple():
    v = Vector3(1, -2, 3)
    assert tuple(v) == (1, -2, 3)
    assert v.x == 1 and v.y == -2 and v.z == 3


UNIT = QuadForm(1, 1, 1, 0, 0, 0)


@pytest.mark.parametrize("make", [
    lambda k: QuadForm(k, 1, 1, 0, 0, 0),
    lambda k: ResidueClass(4, k),
    lambda k: evaluate(UNIT, (k, 0, 0)),
    lambda k: scale(UNIT, k),
    lambda k: find_transforms(UNIT, UNIT, k),
    lambda k: kaplansky_family_pair("iii", k, 1),
    lambda k: representations(UNIT, k).tolist(),
    lambda k: represented_mask(UNIT, k).tolist(),
    lambda k: theta(UNIT, k).tolist(),
    lambda k: prove_pair(UNIT, UNIT, empirical_bound=k),
    lambda k: verify_table("S4", k),
], ids=["QuadForm", "ResidueClass", "evaluate", "scale", "find_transforms", "kaplansky",
        "representations", "represented_mask", "theta", "prove_pair", "verify_table"])
def test_integer_arguments_refuse_floats(make):
    # a float used to be truncated silently, so a proof could be about
    # another form, and a count or bound about another integer
    with pytest.raises(TypeError):
        make(1.5)
    assert make(np.int64(1)) == make(1)


def _triple_loop_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _triple_loop_congruence(T, G):
    Tt = tuple(tuple(T[j][i] for j in range(3)) for i in range(3))
    return _triple_loop_mul(Tt, _triple_loop_mul(G, T))


HUGE_ENTRIES = st.integers(-(10**40), 10**40)
HUGE_MATRICES = st.tuples(*[st.tuples(HUGE_ENTRIES, HUGE_ENTRIES, HUGE_ENTRIES)] * 3)


@settings(max_examples=200, deadline=None)
@given(HUGE_MATRICES, HUGE_MATRICES)
def test_mat_mul_matches_triple_loop(A, B):
    assert _mat.mat_mul(A, B) == _triple_loop_mul(A, B)
    assert _mat.transpose(A) == tuple(tuple(A[j][i] for j in range(3)) for i in range(3))
    assert _mat.congruence(A, B) == _triple_loop_congruence(A, B)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(1, 10**40)] * 3), st.tuples(*[HUGE_ENTRIES] * 3), HUGE_MATRICES)
def test_change_of_basis_matches_triple_loop(diagonal, off_diagonal, U):
    form = QuadForm(*diagonal, *off_diagonal)  # need not be definite here
    G = _triple_loop_congruence(U, doubled_gram(form))
    expected = QuadForm(G[0][0] // 2, G[1][1] // 2, G[2][2] // 2, G[1][2], G[0][2], G[0][1])
    assert change_of_basis(form, U) == expected


def _triple_loop_finite_order(T, d):
    P = _mat.IDENTITY
    for k in range(1, 13):
        P = _triple_loop_mul(P, T)
        if P == _mat.scaled_identity(d**k):
            return True
    return False


@st.composite
def scaled_matrices(draw):
    """(T, d): d times a signed permutation, which has finite order, or d
    times one with one entry moved, which mostly has not."""
    d = draw(st.integers(1, 144))
    perm = draw(st.permutations(range(3)))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * 3))
    T = [[d * signs[i] * (perm[i] == j) for j in range(3)] for i in range(3)]
    if draw(st.booleans()):
        T[draw(st.integers(0, 2))][draw(st.integers(0, 2))] += draw(HUGE_ENTRIES)
    return tuple(map(tuple, T)), d


@settings(max_examples=200, deadline=None)
@given(scaled_matrices())
def test_finite_order_matches_triple_loop(scaled):
    T, d = scaled
    assert _mat.is_finite_order_scaled(T, d) is _triple_loop_finite_order(T, d)
