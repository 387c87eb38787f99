import random
import tracemalloc
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from ternrep import (
    NotPositiveDefinite,
    QuadForm,
    change_of_basis,
    is_positive_definite,
    named_form,
    representations,
    represented_mask,
    represented_set,
    theta,
)
from ternrep.forms import Vector3, scale
from ternrep import enumeration

SUM_OF_SQUARES = QuadForm(1, 1, 1, 0, 0, 0)


def test_representations_worked_values(s4):
    f, g = s4
    assert representations(f, 0) == [Vector3(0, 0, 0)]
    assert Vector3(1, 4, 2) in representations(g, 392)
    assert Vector3(4, 5, 1) in representations(f, 392)


def test_representations_sorted_and_exact(s4):
    f, _ = s4
    reps = representations(f, 392)
    assert reps == sorted(reps)
    assert len(reps) == len(set(reps))
    from ternrep import evaluate

    assert all(evaluate(f, v) == 392 for v in reps)


def test_representations_against_triple_loop(s4):
    f, g = s4
    for n in (8, 14, 18, 32, 50):
        assert representations(f, n) == oracle.triple_loop_reps(f, n, 6)
        assert representations(g, n) == oracle.triple_loop_reps(g, n, 6)


def test_rep_count_values(s4):
    f, g = s4
    assert len(representations(f, 0)) == 1
    assert len(representations(f, 8)) == 2  # exactly +-(1,0,0)
    assert len(representations(g, 14)) == 4  # +-(0,1,0), +-(0,0,1)
    assert representations(f, 8) == [Vector3(-1, 0, 0), Vector3(1, 0, 0)]


def test_represented_set_small(s4):
    f, g = s4
    assert list(represented_set(f, 20)) == [0, 8, 14, 18]
    assert list(represented_set(g, 20)) == [0, 8, 14, 18]
    assert list(represented_set(f, 0)) == [0]


def _primitive_representations(form, n):
    return [v for v in representations(form, n) if gcd(gcd(v.x, v.y), v.z) == 1]


def test_primitive_representations(s4):
    f, _ = s4
    assert _primitive_representations(f, 8) == [Vector3(-1, 0, 0), Vector3(1, 0, 0)]
    assert _primitive_representations(f, 32) == []  # only +-(2,0,0)
    assert _primitive_representations(f, 0) == []


def test_theta_sum_of_three_squares():
    series = theta(SUM_OF_SQUARES, 3)
    assert list(series.coeffs) == [1, 6, 12, 8]
    assert series[0] == 1


def test_theta_consistency(s4):
    f, _ = s4
    series = theta(f, 20)
    assert [n for n in range(21) if series[n]] == [0, 8, 14, 18]
    assert all(series[n] == len(representations(f, n)) for n in range(21))
    assert all(series[n] % 2 == 0 for n in range(1, 21))


def test_theta_primitive_counts(s4):
    f, _ = s4
    series = theta(f, 40, primitive=True)
    assert series[0] == 0
    assert series[8] == 2
    assert series[32] == 0  # imprimitive value
    full = theta(f, 40)
    assert all(series[n] <= full[n] for n in range(41))


def test_mask_matches_oracle_midsize():
    for name in ("S4f", "S4g", "S3a", "S15d"):
        form = named_form(name)
        assert np.array_equal(represented_mask(form, 3000), oracle.value_mask(form, 3000))


def test_theta_matches_oracle_counts():
    for name in ("S4f", "S2b", "S13c"):
        form = named_form(name)
        assert np.array_equal(theta(form, 1500).coeffs, oracle.value_counts(form, 1500))


def test_primitive_mask_matches_filtered_oracle():
    from math import gcd

    form = named_form("S8f")
    bound = 800
    mask = represented_mask(form, bound, primitive=True)
    expected = np.zeros(bound + 1, dtype=bool)
    rx, ry, rz = oracle.box(form, bound)
    from ternrep import evaluate

    for x in range(-rx, rx + 1):
        for y in range(-ry, ry + 1):
            for z in range(-rz, rz + 1):
                n = evaluate(form, (x, y, z))
                if n <= bound and gcd(gcd(abs(x), abs(y)), abs(z)) == 1:
                    expected[n] = True
    assert np.array_equal(mask, expected)


def test_scaling_law():
    form = named_form("S6a")
    base = represented_mask(form, 500)
    doubled = represented_mask(scale(form, 2), 1000)
    expected = np.zeros(1001, dtype=bool)
    expected[2 * np.flatnonzero(base)] = True
    assert np.array_equal(doubled, expected)


def test_membership_matches_rep_count(s4):
    _, g = s4
    members = represented_set(g, 300)
    rng = random.Random(17)
    for n in rng.sample(range(301), 40):
        assert (n in members) == (len(representations(g, n)) > 0)


def test_rejects_indefinite_forms():
    bad = QuadForm(1, 1, 1, 0, 0, 3)
    with pytest.raises(NotPositiveDefinite):
        representations(bad, 5)
    with pytest.raises(NotPositiveDefinite):
        represented_set(bad, 5)


def test_repset_equality_and_contains(s4):
    f, g = s4
    assert represented_set(f, 20) == represented_set(g, 20)
    assert represented_set(f, 20) != represented_set(f, 19)
    assert 14 in represented_set(f, 20)
    assert 15 not in represented_set(f, 20)


small_forms = st.builds(
    QuadForm,
    *[st.integers(1, 8)] * 3,
    *[st.integers(-8, 8)] * 3,
).filter(is_positive_definite)


@settings(max_examples=200, deadline=None)
@given(small_forms, st.integers(0, 300))
def test_mask_and_theta_match_oracle_on_random_forms(form, bound):
    for primitive in (False, True):
        counts = oracle.value_counts(form, bound, primitive=primitive)
        assert np.array_equal(theta(form, bound, primitive=primitive).coeffs, counts)
        assert np.array_equal(represented_mask(form, bound, primitive=primitive), counts > 0)


@settings(max_examples=100, deadline=None)
@given(small_forms, st.integers(0, 300))
def test_row_blocks_of_any_size_match_oracle(form, bound):
    # one cell per block makes every row a block of its own; 7 and 64 cells
    # group the rows of narrow slices and leave wide rows whole
    expected = {p: oracle.value_counts(form, bound, primitive=p) for p in (False, True)}
    for cells in (1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells), \
                mock.patch.dict(enumeration._mask_cache, clear=True):
            for primitive, counts in expected.items():
                assert np.array_equal(theta(form, bound, primitive=primitive).coeffs, counts)
                assert np.array_equal(represented_mask(form, bound, primitive=primitive), counts > 0)


@pytest.mark.parametrize("form", [
    scale(named_form("S6b"), 2),
    SUM_OF_SQUARES,
    QuadForm(200, 210, 230, 17, 19, 23),
], ids=str)
def test_mask_memory_does_not_grow_with_slice_width(form):
    # at 10^6 the mask is 1 MB and its bitset 125 KB; a table of one bitset
    # per vertex class would take (a + 1) x 125 KB, 25 MB for a = 200, and
    # the slice z = 0 of the sum of three squares alone holds ~3.1 M lattice
    # points, 25 MB of int64.  numpy reports its buffers to tracemalloc
    with mock.patch.dict(enumeration._mask_cache, clear=True):
        tracemalloc.start()
        try:
            represented_mask(form, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=150, deadline=None)
@given(small_forms, st.integers(0, 2000))
def test_representations_match_box_scan(form, n):
    # one row per chunk, a few slices per chunk, and the default chunk size
    expected = oracle.reps_in_box(form, n)
    assert representations(form, n) == expected
    for cells in (1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            assert representations(form, n) == expected


@settings(max_examples=50, deadline=None)
@given(small_forms, st.integers(0, 200))
def test_representation_counts_match_theta(form, bound):
    series = theta(form, bound)
    assert [len(representations(form, n)) for n in range(bound + 1)] == list(series.coeffs)


HUGE = QuadForm(10**9, 10**9, 10**9, 0, 0, 0)


# a mask or theta at the norm 2^61 would first need 2^61 bytes of output
@pytest.mark.parametrize("enumerate_, form, n", [
    (representations, HUGE, 10),
    (representations, SUM_OF_SQUARES, 2**61),
    (represented_mask, HUGE, 10),
    (theta, HUGE, 10),
], ids=["coefficients", "norm", "mask-coefficients", "theta-coefficients"])
def test_representations_refuse_int64_overflow_before_any_work(enumerate_, form, n):
    # no slice is walked, so no row is solved and no block filled
    with mock.patch.object(enumeration, "_solve_rows", side_effect=AssertionError), \
            mock.patch.object(enumeration, "_quad_interval", side_effect=AssertionError):
        with pytest.raises(OverflowError, match="would not fit in int64"):
            enumerate_(form, n)


def _swept(form, bound):
    """(cells filled, lattice points) of the mask sweep of f(v) <= bound, z >= 0."""
    cells = points = 0
    for _, values in enumeration._capped_rows(form, bound, False):
        cells += len(values)
        points += int(np.count_nonzero(values <= bound))
    return cells, points


def test_sweep_cells_do_not_depend_on_skew():
    # an x-shear moves each row's vertex but not its width; the axis-aligned
    # (y, x) rectangles of the slices hold 274,202 and 1,370,482 cells here
    f = scale(named_form("S7b"), 2)
    g = change_of_basis(f, ((1, 5, -3), (0, 1, 0), (0, 0, 1)))
    cells, points = _swept(f, 10**4)
    assert _swept(g, 10**4) == (cells, points)
    assert points == 205_586
    assert cells <= 1.5 * points
    assert np.array_equal(represented_mask(f, 10**4), represented_mask(g, 10**4))


@st.composite
def sheared_forms(draw):
    """A small form moved by a signed permutation P times a shear I + k E_ij."""
    form = draw(small_forms)
    perm = draw(st.permutations(range(3)))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * 3))
    i, j = draw(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]))
    k = draw(st.integers(-6, 6))
    U = [[signs[row] * (perm[row] == col) for col in range(3)] for row in range(3)]
    for row in U:
        row[j] += k * row[i]
    return change_of_basis(form, U)


@settings(max_examples=100, deadline=None)
@given(sheared_forms(), st.integers(0, 300))
def test_sheared_forms_match_oracle(form, bound):
    # reaches B < 0, the floor rounding of the vertex and rows far from x = 0
    expected = {p: oracle.value_counts(form, bound, primitive=p) for p in (False, True)}
    for cells in (enumeration._BLOCK_CELLS, 1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells), \
                mock.patch.dict(enumeration._mask_cache, clear=True):
            for primitive, counts in expected.items():
                assert np.array_equal(theta(form, bound, primitive=primitive).coeffs, counts)
                assert np.array_equal(represented_mask(form, bound, primitive=primitive), counts > 0)


@st.composite
def sumset_forms(draw):
    """Forms that reach every branch of the sumset kernel of represented_mask.

    a is the smallest diagonal coefficient, up to 40, so a class may hold
    few rows; t and s are often odd, so the rows spread over many vertex
    classes; a coordinate permutation then puts a in any place.
    """
    a = draw(st.integers(1, 40))
    b, c = draw(st.integers(a, a + 30)), draw(st.integers(a, a + 30))
    odd = st.integers(-8, 7).map(lambda k: 2 * k + 1)
    s, t = (draw(st.one_of(odd, st.integers(-a, a))) for _ in range(2))
    r = draw(st.integers(-b, b))
    form = QuadForm(a, b, c, r, s, t)
    assume(is_positive_definite(form))
    perm = draw(st.permutations(range(3)))
    return change_of_basis(form, [[int(perm[i] == j) for j in range(3)] for i in range(3)])


@settings(max_examples=150, deadline=None)
@given(sumset_forms(), st.integers(0, 250), st.sampled_from((-1, 0, 1)))
@example(SUM_OF_SQUARES, 0, 0)  # later row chunks hold no row with c0 <= bound
@example(QuadForm(2, 3, 3, -1, -1, 0), 4, -1)  # a value <= 31 needs |j| = isqrt(31 // 2) + 1
def test_sumset_mask_matches_oracle(form, k, offset):
    # bounds 8k - 1, 8k and 8k + 1 end the mask's bitset inside, at and just
    # past a byte; one cell per block collects every class's row minima in
    # a bitset from its first row (up to 8 classes), the default block
    # scatters the classes of small bounds row by row
    bound = max(0, 8 * k + offset)
    expected = oracle.value_counts(form, bound) > 0
    for cells in (enumeration._BLOCK_CELLS, 1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells), \
                mock.patch.dict(enumeration._mask_cache, clear=True):
            assert np.array_equal(represented_mask(form, bound), expected)
