import hashlib
import random
import tracemalloc
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
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
from ternrep.fixtures import CATALOG_SCALE, SET_IDS, table_set
from ternrep.forms import scale
from ternrep import enumeration

SUM_OF_SQUARES = QuadForm(1, 1, 1, 0, 0, 0)


def test_representations_worked_values(s4):
    f, g = s4
    assert representations(f, 0).tolist() == [[0, 0, 0]]
    assert [1, 4, 2] in representations(g, 392).tolist()
    assert [4, 5, 1] in representations(f, 392).tolist()


def test_representations_sorted_and_exact(s4):
    f, _ = s4
    reps = representations(f, 392).tolist()
    assert reps == sorted(reps)
    assert len(reps) == len(set(map(tuple, reps)))
    from ternrep import evaluate

    assert all(evaluate(f, v) == 392 for v in reps)


def test_representations_against_triple_loop(s4):
    f, g = s4
    for n in (8, 14, 18, 32, 50):
        assert representations(f, n).tolist() == list(map(list, oracle.triple_loop_reps(f, n, 6)))
        assert representations(g, n).tolist() == list(map(list, oracle.triple_loop_reps(g, n, 6)))


def test_rep_count_values(s4):
    f, g = s4
    assert len(representations(f, 0)) == 1
    assert len(representations(f, 8)) == 2  # exactly +-(1,0,0)
    assert len(representations(g, 14)) == 4  # +-(0,1,0), +-(0,0,1)
    assert representations(f, 8).tolist() == [[-1, 0, 0], [1, 0, 0]]


def test_represented_set_small(s4):
    f, g = s4
    assert represented_set(f, 20).tolist() == [0, 8, 14, 18]
    assert represented_set(g, 20).tolist() == [0, 8, 14, 18]
    assert represented_set(f, 0).tolist() == [0]


def _primitive_representations(form, n):
    return [v for v in representations(form, n).tolist() if gcd(*v) == 1]


def test_primitive_representations(s4):
    f, _ = s4
    assert _primitive_representations(f, 8) == [[-1, 0, 0], [1, 0, 0]]
    assert _primitive_representations(f, 32) == []  # only +-(2,0,0)
    assert _primitive_representations(f, 0) == []


def test_theta_sum_of_three_squares():
    assert theta(SUM_OF_SQUARES, 3).tolist() == [1, 6, 12, 8]


def test_theta_consistency(s4):
    f, _ = s4
    series = theta(f, 20).tolist()
    assert [n for n in range(21) if series[n]] == [0, 8, 14, 18]
    assert series == [len(representations(f, n)) for n in range(21)]
    assert all(series[n] % 2 == 0 for n in range(1, 21))


def test_theta_primitive_counts(s4):
    f, _ = s4
    series = oracle.primitive_counts(theta(f, 40))
    assert series[0] == 0
    assert series[8] == 2
    assert series[32] == 0  # imprimitive value
    assert np.all(series <= theta(f, 40))
    assert np.array_equal(series, oracle.value_counts(f, 40, primitive=True))


def test_mask_matches_oracle_midsize():
    for name in ("S4f", "S4g", "S3a", "S15d"):
        form = named_form(name)
        assert np.array_equal(represented_mask(form, 3000), oracle.value_mask(form, 3000))


def test_theta_matches_oracle_counts():
    for name in ("S4f", "S2b", "S13c"):
        form = named_form(name)
        assert np.array_equal(theta(form, 1500), oracle.value_counts(form, 1500))


def test_primitive_mask_matches_filtered_oracle():
    from math import gcd

    form = named_form("S8f")
    bound = 800
    mask = oracle.primitive_counts(theta(form, bound)) > 0
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
    members = set(represented_set(g, 300).tolist())
    rng = random.Random(17)
    for n in rng.sample(range(301), 40):
        assert (n in members) == (len(representations(g, n)) > 0)


def test_results_are_fresh_arrays(s4):
    f, _ = s4
    assert representations(f, -1).shape == (0, 3)
    first = represented_mask(f, 20)
    first[:] = False  # each call builds its own writable mask
    assert np.flatnonzero(represented_mask(f, 20)).tolist() == [0, 8, 14, 18]


def test_rejects_indefinite_forms():
    bad = QuadForm(1, 1, 1, 0, 0, 3)
    with pytest.raises(NotPositiveDefinite):
        representations(bad, 5)
    with pytest.raises(NotPositiveDefinite):
        represented_set(bad, 5)


def test_repset_equality_and_contains(s4):
    f, g = s4
    assert np.array_equal(represented_set(f, 20), represented_set(g, 20))
    assert represented_set(f, 19).tolist() == [0, 8, 14, 18]  # the same members as at 20
    assert 14 in represented_set(f, 20).tolist()
    assert 15 not in represented_set(f, 20).tolist()


small_forms = st.builds(
    QuadForm,
    *[st.integers(1, 8)] * 3,
    *[st.integers(-8, 8)] * 3,
).filter(is_positive_definite)


@settings(max_examples=200, deadline=None)
@given(small_forms, st.integers(0, 300))
def test_mask_and_theta_match_oracle_on_random_forms(form, bound):
    counts = oracle.value_counts(form, bound)
    got = theta(form, bound)
    assert np.array_equal(got, counts)
    assert np.array_equal(oracle.primitive_counts(got), oracle.value_counts(form, bound, primitive=True))
    assert np.array_equal(represented_mask(form, bound), counts > 0)


@settings(max_examples=100, deadline=None)
@given(small_forms, st.integers(0, 300))
def test_row_blocks_of_any_size_match_oracle(form, bound):
    # one cell per block makes every row a block of its own; 7 and 64 cells
    # group the rows of narrow slices and leave wide rows whole
    counts = oracle.value_counts(form, bound)
    primitive = oracle.value_counts(form, bound, primitive=True)
    for cells in (1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            got = theta(form, bound)
            assert np.array_equal(got, counts)
            assert np.array_equal(oracle.primitive_counts(got), primitive)
            assert np.array_equal(represented_mask(form, bound), counts > 0)


@pytest.mark.parametrize("form", [
    scale(named_form("S6b"), 2),
    SUM_OF_SQUARES,
    QuadForm(200, 210, 230, 17, 19, 23),
    QuadForm(10**6, 10**6 + 1, 10**6 + 3, 1, 1, 1),  # no table over the a + 1 classes
], ids=str)
def test_mask_memory_does_not_grow_with_slice_width(form):
    # at 10^6 the mask is 1 MB and its bitset 125 KB; a table of one bitset
    # per vertex class would take (a + 1) x 125 KB, 25 MB for a = 200, and
    # the slice z = 0 of the sum of three squares alone holds ~3.1 M lattice
    # points, 25 MB of int64.  numpy reports its buffers to tracemalloc
    tracemalloc.start()
    try:
        represented_mask(form, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _kernel_peak_and_classes(form, bound):
    """(tracemalloc peak of represented_mask, number of classes whose row minima it collects)."""
    collected, walk = [], enumeration._walk_rows

    def spy(*args):
        minima, classes = walk(*args)
        collected.append(len(classes))
        return minima, classes

    tracemalloc.start()
    try:
        with mock.patch.object(enumeration, "_walk_rows", spy):
            represented_mask(form, bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, collected[0]


def test_mask_memory_does_not_grow_with_collected_classes():
    # every collected class is packed into the same reused bitset, of
    # 500,001 bits = 62,501 bytes at 5 * 10^5, before its ORs
    many, six = _kernel_peak_and_classes(named_form("S1a"), 5 * 10**5)
    one, single = _kernel_peak_and_classes(named_form("S3a"), 5 * 10**5)
    assert (six, single) == (6, 1)
    assert many - one < 62_501


@pytest.mark.parametrize("form, classes", [
    # a = 5, g = 1: six slots, each with a bit
    pytest.param(named_form("S1a"), list(range(6)), id="S1a"),
    # a = 9, g = 1: ten slots, and the slots 0 and 9 are scattered
    pytest.param(QuadForm(9, 11, 16, -10, 7, 13), list(range(1, 9)), id="a9"),
])
@pytest.mark.parametrize("bound", [50, 1_000])
def test_slots_with_a_bit_are_collected_at_any_bound(form, classes, bound):
    # a slot's mode is fixed before the walk: every slot with a bit is
    # collected from its first row, however few rows the bound gives it
    collected, walk = [], enumeration._walk_rows

    def spy(*args):
        minima, found = walk(*args)
        collected.append([m for m, _ in found])
        return minima, found

    with mock.patch.object(enumeration, "_walk_rows", spy):
        mask = represented_mask(form, bound)
    assert collected == [classes]
    assert np.array_equal(mask, oracle.value_counts(form, bound) > 0)


# one SHA-256 over the masks of the 36 catalog forms (at the catalog scale,
# as `ternrep table` sweeps them), each with its dtype and shape: any change
# to the mask kernel must leave every byte of them as it is
GOLDEN_MASKS = "bae7f4cccdfa1be8317a9df5f38000398bc12aab2e2438755cae8fc9ae6fa9f6"


def test_golden_masks():
    digest = hashlib.sha256()
    for sid in SET_IDS:
        for form in table_set(sid, CATALOG_SCALE):
            for bound in (0, 1, 7, 5_000, 10**6):
                mask = represented_mask(form, bound)
                digest.update(f"{mask.dtype.str} {mask.shape}".encode())
                digest.update(mask.tobytes())
    assert digest.hexdigest() == GOLDEN_MASKS


@settings(max_examples=150, deadline=None)
@given(small_forms, st.integers(0, 2000))
def test_representations_match_box_scan(form, n):
    # one row per chunk, a few slices per chunk, and the default chunk size
    expected = list(map(list, oracle.reps_in_box(form, n)))
    assert representations(form, n).tolist() == expected
    for cells in (1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            assert representations(form, n).tolist() == expected


@settings(max_examples=50, deadline=None)
@given(small_forms, st.integers(0, 200))
def test_representation_counts_match_theta(form, bound):
    assert [len(representations(form, n)) for n in range(bound + 1)] == theta(form, bound).tolist()


# primitive: the mask kernel divides a form's content out of it first
HUGE = QuadForm(10**9, 10**9, 10**9 + 1, 0, 0, 0)


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


def test_mask_divides_out_the_content():
    # 10^9 (x^2 + y^2 + z^2) is the sum of three squares at bound 10 // 10^9 = 0:
    # no int64 bound is reached, and the mask buffer does not grow with 10^9
    form = scale(SUM_OF_SQUARES, 10**9)
    assert np.flatnonzero(represented_mask(form, 10)).tolist() == [0]
    tracemalloc.start()
    try:
        mask = represented_mask(form, 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.flatnonzero(mask).tolist() == [0]
    assert peak < 2**20


def _swept(form, bound):
    """(cells filled, lattice points) of the theta sweep of f(v) <= bound, z >= 0."""
    cells = points = 0
    row_sums = enumeration._row_sums

    def counted(*args):
        nonlocal cells, points
        for block in row_sums(*args):
            cells += block.size
            points += int(np.count_nonzero(block <= bound))
            yield block

    with mock.patch.object(enumeration, "_row_sums", counted):
        theta(form, bound)
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
    counts = oracle.value_counts(form, bound)
    primitive = oracle.value_counts(form, bound, primitive=True)
    for cells in (enumeration._BLOCK_CELLS, 1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            got = theta(form, bound)
            assert np.array_equal(got, counts)
            assert np.array_equal(oracle.primitive_counts(got), primitive)
            assert np.array_equal(represented_mask(form, bound), counts > 0)


@st.composite
def norm_lists(draw):
    """One to four norms in [0, 40] plus 0 and a repeat of one of them, in a drawn order."""
    norms = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    norms += [0, draw(st.sampled_from(norms))]
    return draw(st.permutations(norms))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_forms, sheared_forms()), norm_lists())
def test_one_walk_solves_every_norm(form, norms):
    # each norm's vectors from the one walk at max(norms), in one chunk,
    # one row per chunk and a few rows per chunk
    radius = max(oracle.box(form, max(norms)))
    expected = {n: oracle.triple_loop_reps(form, n, radius) for n in set(norms)}
    for cells in (enumeration._BLOCK_CELLS, 1, 7):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            found = enumeration._vectors_by_norm(form, norms)
        assert len(found) == len(norms)
        for n, v in zip(norms, found):
            assert v.dtype == np.int64 and v.shape[1:] == (3,)
            got = sorted(map(tuple, v.tolist()))
            assert got == list(map(tuple, representations(form, n).tolist()))
            assert got == expected[n]


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
# the next five collect the row minima of every slot with a bit:
# a + 1 = 3 slots, so a row's slot is m and every slot has a bit
@example(QuadForm(2, 3, 3, -1, -1, 0), 31, 1)
# g = gcd(s, t, 2a) = 2: only m = 0, 2, 4 occur, so a row's slot is m / 2
@example(QuadForm(4, 5, 6, 0, 2, 2), 31, 0)
# a = 9: 10 slots, so the bits are on slots 1 to 8, and the rows of m = 0
# and m = 9, which add values of their own, are always scattered
@example(QuadForm(9, 11, 16, -10, 7, 13), 5, 0)
# g = 2 and a = 8g: 9 slots, the bits on m = 2, ..., 16; bound 32 reaches
# rows of m = 0 (scattered) and of m = 2 and 4 (collected), so bit k must
# name the class (k + 1) g
@example(QuadForm(16, 17, 19, 1, 2, 4), 4, 0)
# several classes collected: each after the first is packed into the bitset
# buffer that the one before it shifted, after those ORs
@example(QuadForm(19, 29, 21, 26, 13, 0), 5, -1)
def test_sumset_mask_matches_oracle(form, k, offset):
    # bounds 8k - 1, 8k and 8k + 1 end the mask's bitset inside, at and just
    # past a byte; every block size collects the row minima of the slots
    # with a bit (up to 8 classes) from their first row and scatters the
    # other classes row by row, and the sizes split the rows differently
    # into chunks and blocks
    bound = max(0, 8 * k + offset)
    expected = oracle.value_counts(form, bound) > 0
    for cells in (enumeration._BLOCK_CELLS, 1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            assert np.array_equal(represented_mask(form, bound), expected)


@settings(max_examples=100, deadline=None)
@given(sumset_forms(), st.sampled_from((2, 3, 4, 6, 12)), st.integers(0, 250),
       st.sampled_from((-1, 0, 1)), st.integers(0, 11))
@example(SUM_OF_SQUARES, 12, 0, 0, 11)  # a bound below the content: only 0 is in range
@example(QuadForm(2, 3, 3, -1, -1, 0), 6, 0, 1, 5)
def test_sumset_mask_of_a_multiple_matches_oracle(form, k, j, offset, rest):
    # k f has content k (times that of f): the kernel runs on f at
    # bound // k = 8j - 1, 8j or 8j + 1, and fills every k-th slot of the mask
    multiple = scale(form, k)
    bound = k * max(0, 8 * j + offset) + rest % k
    expected = oracle.value_counts(multiple, bound) > 0
    for cells in (enumeration._BLOCK_CELLS, 1, 7, 64):
        with mock.patch.object(enumeration, "_BLOCK_CELLS", cells):
            assert np.array_equal(represented_mask(multiple, bound), expected)


def _bit_set(bits):
    return {8 * i + p for i, byte in enumerate(bits.tolist()) for p in range(8) if byte >> p & 1}


@st.composite
def or_shifted_inputs(draw):
    """(bits, big, small): big is as long as bits, small reaches past its end."""
    def bytes_(n):
        return np.array(draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)), dtype=np.uint8)

    bits = bytes_(draw(st.integers(1, 12)))
    big = bytes_(len(bits))
    small = draw(st.sets(st.integers(0, 8 * len(bits) + 16), max_size=24))
    return bits, big, np.array(sorted(small), dtype=np.int64)


def _ors(bits, big, small):
    return np.array(bits, dtype=np.uint8), np.array(big, dtype=np.uint8), np.array(small, dtype=np.int64)


@seed(20)
@settings(max_examples=300, deadline=None)
@given(or_shifted_inputs())
@example(_ors([0b0010_0000], [0b1001_0001], [0, 3, 7, 8]))  # a one-byte bits
@example(_ors([0, 0, 0], [0b1100_0001, 1, 0x80], [16, 23, 24, 25, 40]))  # shifts at and past the end
@example(_ors([0] * 4, [0b1010_1010, 7, 0, 0x81], [3, 11, 19]))  # one phase: the other seven have no shift
@example(_ors([0, 0x0F, 0, 0], [255] * 4, []))  # no shift leaves bits as they were
def test_or_shifted_matches_set_reference(args):
    bits, big, small = args
    bits, end = bits.copy(), 8 * len(bits)  # an explicit example may run again
    expected = _bit_set(bits) | {v + s for v in _bit_set(big) for s in small.tolist() if v + s < end}
    enumeration._or_shifted(bits, big, small)
    assert _bit_set(bits) == expected


def _with_row_dtypes(enumerate_, *args):
    """(result, the dtypes of the rows that _rows yielded) of one call."""
    dtypes, rows = set(), enumeration._rows

    def spy(*a):
        for chunk in rows(*a):
            dtypes.add(chunk[0].dtype)
            yield chunk

    with mock.patch.object(enumeration, "_rows", spy):
        return enumerate_(*args), dtypes


def _outputs(form, bound):
    """The three enumerations of form that walk rows, and the dtypes of those rows."""
    mask, dtypes = _with_row_dtypes(represented_mask, form, bound)
    counts, more = _with_row_dtypes(theta, form, bound)
    n = int(np.flatnonzero(mask)[-1])  # the largest value up to bound
    reps, last = _with_row_dtypes(representations, form, n)
    assert reps.dtype == np.int64 and reps.shape[1] == 3 and len(reps)
    return (mask, counts, reps), dtypes | more | last


NEAR_LIMIT = QuadForm(1000, 1001, 1003, 1, 1, 1)
SKEWED = change_of_basis(NEAR_LIMIT, ((1, 3, 0), (0, 1, -2), (0, 0, 1)))  # t = 6001


# _rows's bound `worst` on the row magnitudes crosses _INT32_SAFE = 2^30 at
# bound 81,243 for NEAR_LIMIT and 1,806 for SKEWED: each form is taken just
# below (int32 rows, whose values come within a factor 2 of 2^31) and just above
@pytest.mark.parametrize("form, bound, dtype", [
    (NEAR_LIMIT, 80_000, np.int32),
    (NEAR_LIMIT, 84_000, np.int64),
    (SKEWED, 1_750, np.int32),
    (SKEWED, 2_005, np.int64),
    (named_form("S7a"), 5_000, np.int32),
], ids=str)
def test_int32_rows_match_int64_rows(form, bound, dtype):
    outputs, dtypes = _outputs(form, bound)
    assert dtypes == {np.dtype(dtype)}
    with mock.patch.object(enumeration, "_INT32_SAFE", 0):
        wide, dtypes = _outputs(form, bound)
    assert dtypes == {np.dtype(np.int64)}
    for got, want in zip(outputs, wide):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(sheared_forms(), st.integers(0, 300))
@example(QuadForm(241, 6, 5, 6, 36, 76), 101)  # worst = 1.01 * 2^30 along x, int32 along z
def test_int32_rows_match_int64_rows_on_random_forms(form, bound):
    # the oracle tests walk these forms in int32 rows only: along the
    # smallest diagonal coefficient, worst stayed below 0.45 * 2^30 over
    # 200,000 random sheared forms at bound 300
    outputs, dtypes = _outputs(form, bound)
    assert dtypes == {np.dtype(np.int32)}
    with mock.patch.object(enumeration, "_INT32_SAFE", 0):
        wide, _ = _outputs(form, bound)
    for got, want in zip(outputs, wide):
        assert np.array_equal(got, want)
