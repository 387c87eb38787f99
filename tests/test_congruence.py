import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import attained_residues
from ternrep import (
    QuadForm,
    ResidueClass,
    change_of_basis,
    cover_check,
    evaluate,
    find_transforms,
    is_positive_definite,
    named_form,
    precedes,
    residue_vectors,
    search_cover,
    transport,
)
from ternrep.congruence import attainable_residues
from ternrep.forms import Vector3
from ternrep import certificate, congruence, prover

T1 = ((4, 2, 2), (0, 4, 2), (0, 0, 2))


def test_residue_vectors_mod4(s4):
    _, g = s4
    vecs = residue_vectors(g, ResidueClass(4, 0))
    assert len(vecs) == 16
    assert all(v.y % 2 == 0 and v.z % 2 == 0 for v in vecs)
    expected = {
        (x, y, z) for x in range(4) for y in (0, 2) for z in (0, 2)
    }
    assert set(map(tuple, vecs)) == expected


def test_residue_vectors_mod12(s4):
    _, g = s4
    assert len(residue_vectors(g, ResidueClass(12, 2))) == 864


def test_residue_vectors_trivial_modulus():
    g = named_form("S2a")
    assert residue_vectors(g, ResidueClass(1, 0)) == [Vector3(0, 0, 0)]


def test_residue_vectors_match_definition(s4):
    _, g = s4
    cls = ResidueClass(12, 6)
    vecs = set(map(tuple, residue_vectors(g, cls)))
    brute = {
        (x, y, z)
        for x in range(12)
        for y in range(12)
        for z in range(12)
        if evaluate(g, (x, y, z)) % 12 == 6
    }
    assert vecs == brute


def test_classify_good_mod4(s4):
    f, g = s4
    report = precedes(f, g, ResidueClass(4, 0))
    assert report.all_good and len(report.good) == 16
    # T1 alone transports every coset
    for v, _ in report.good:
        assert transport(v, T1, 4) is not None


def test_classify_good_bad_set_characterization(s4):
    f, g = s4
    report = precedes(f, g, ResidueClass(12, 2))
    assert len(report.bad) == 32
    assert len(report.good) == 864 - 32
    for v in report.bad:
        assert v.x % 3 != 0
        assert v.y % 12 in (3, 9)
        assert v.z % 12 in (3, 9)


def test_classify_good_self_pair_all_good():
    f = named_form("S11a")
    for cls in (ResidueClass(4, 0), ResidueClass(4, 3), ResidueClass(6, 1)):
        report = precedes(f, f, cls)
        assert report.all_good  # d*I makes every coset good


@pytest.mark.parametrize("chunk", [1, 7, congruence._KERNEL_CHUNK])
def test_witness_is_the_first_integral_transform(s4, monkeypatch, chunk):
    f, g = s4
    monkeypatch.setattr(congruence, "_KERNEL_CHUNK", chunk)
    congruence._kernel_classes.cache_clear()  # build the bitsets with this chunk
    cls = ResidueClass(12, 2)
    ts = find_transforms(f, g, 12)
    report = precedes(f, g, cls)
    expected = [
        next((i for i, T in enumerate(ts.matrices) if transport(v, T, 12) is not None), -1)
        for v in residue_vectors(g, cls)
    ]
    assert report.witness.tolist() == expected
    assert len(report.bad) == expected.count(-1) == 32


small_forms = st.builds(
    QuadForm,
    *[st.integers(1, 6)] * 3,
    *[st.integers(-3, 3)] * 3,
).filter(is_positive_definite)
# upper triangular, determinant 2 or 3: change_of_basis(h, U) is h on a sublattice
sublattice_bases = st.builds(
    lambda k, p, q, r: ((1, p, q), (0, 1, r), (0, 0, k)),
    st.sampled_from((2, 3)), *[st.integers(-1, 1)] * 3,
)


@settings(max_examples=40, deadline=None)
@given(
    f=small_forms,
    other=small_forms,
    basis=st.none() | sublattice_bases,
    swap=st.booleans(),
    d=st.sampled_from((1, 2, 3, 4, 5, 8, 9, 16, 6, 12, 24, 36, 48, 60)),
    v=st.tuples(*[st.integers(0, 59)] * 3),
    chunk=st.sampled_from((1, 7, 8, 64)),
)
def test_witness_matches_first_transport(f, other, basis, swap, d, v, chunk):
    # with g on a sublattice of f, T = d U makes every coset good; with f on
    # a sublattice of g, classes at d divisible by det U have some bad cosets
    g = other if basis is None else change_of_basis(f, basis)
    if swap:
        f, g = g, f
    cls = ResidueClass(d, evaluate(g, v) % d)  # a class with at least one coset
    ts = find_transforms(f, g, d)
    with patch.object(congruence, "_KERNEL_CHUNK", chunk):
        congruence._kernel_classes.cache_clear()
        report = precedes(f, g, cls)
    # one integer product per transform: hits[t, i] says T_t makes coset i
    # integral, and a last row of hits stands for "no transform"
    V = np.array(residue_vectors(g, cls), dtype=np.int64)
    hits = np.array([~((V @ T.T) % d).any(axis=1) for T in ts.matrices] + [np.ones(len(V), dtype=bool)])
    first = hits.argmax(axis=0)
    expected = np.where(first < len(ts), first, -1).tolist()
    assert report.witness.tolist() == expected


def test_kernel_bits_built_once_per_transform_set(s6, monkeypatch):
    # precedes reads the kernel tables through _class_groups, the escape scan
    # of build_escape through _integral_on_bad, which reads the report's too
    f, g = s6
    scanned = []
    class_groups, integral_on_bad = congruence._class_groups, congruence._integral_on_bad

    def recording_groups(ts, form, cls):
        scanned.append((ts.f, ts.g, ts.d))
        return class_groups(ts, form, cls)

    def recording_escape(ts, report):
        scanned.extend((t.f, t.g, t.d) for t in (report.transforms, ts))
        return integral_on_bad(ts, report)

    monkeypatch.setattr(congruence, "_class_groups", recording_groups)
    monkeypatch.setattr(prover, "_integral_on_bad", recording_escape)
    congruence._kernel_classes.cache_clear()
    search_cover(f, g)
    info = congruence._kernel_classes.cache_info()
    assert len(set(scanned)) < len(scanned)  # several classes share a modulus
    assert any(ts_f == ts_g for ts_f, ts_g, _ in scanned)  # an escape scan ran
    assert info.misses == len(set(scanned))
    assert info.hits == len(scanned) - len(set(scanned))


def _scanned_kernel_rows(ts, q):
    """Reference kernel table mod q by a direct scan: bit t (packed as in
    _kernel_bits) of row x q^2 + y q + z says T_t (x, y, z)^t = 0 (mod q)."""
    U = np.indices((q, q, q)).reshape(3, -1)
    hits = np.zeros((len(ts), q**3), dtype=bool)
    for t, T in enumerate(ts.matrices):
        hits[t] = ~((T @ U) % q).any(axis=0)
    return np.packbits(hits.T, axis=1, bitorder="little")


def test_kernel_classes_rebuild_the_kernel_rows(s6):
    f, g = s6
    ts = find_transforms(f, g, 48)
    classes = congruence._kernel_classes(ts)
    assert [q for q, _, _ in classes] == [16, 3]
    for q, label, rows in classes:
        assert np.array_equal(rows[label], _scanned_kernel_rows(ts, q))
        assert len({row.tobytes() for row in rows}) == len(rows) < q**3
    assert len(classes[0][2]) == 79


def _coset_groups(ts, parts, V):
    """The group of each coset V[i] in _class_groups' order: the rank of its
    label mod each q among the part's present labels, the last q fastest."""
    group = np.zeros(len(V), dtype=np.int64)
    for (q, cells, present), (_, label, _) in zip(parts, congruence._kernel_classes(ts)):
        index = ((V[:, 0] % q) * q + V[:, 1] % q) * q + V[:, 2] % q
        assert np.isin(index, cells).all()
        group = group * len(present) + np.searchsorted(present, label[index])
    return group


def _scanned_group_rows(ts, V, d):
    """Each coset's bitset by direct scans: the AND of its kernel rows mod q."""
    expected = np.full((len(V), -(-len(ts) // 8)), 0xFF, dtype=np.uint8)
    for q in congruence._prime_powers(d):
        expected &= _scanned_kernel_rows(ts, q)[((V[:, 0] % q) * q + V[:, 1] % q) * q + V[:, 2] % q]
    return expected


def test_class_groups_and_the_kernel_rows_of_each_coset(s6):
    # the largest class of S6 at d = 48: 16,128 cosets in 99 groups
    f, g = s6
    ts = find_transforms(f, g, 48)
    parts, weight, acc = congruence._class_groups(ts, g, ResidueClass(48, 16))
    V = congruence._residue_array(g, ResidueClass(48, 16))
    group = _coset_groups(ts, parts, V)
    assert [q for q, _, _ in parts] == [16, 3]
    assert acc.shape == (99, 90) and len(V) == 16128 == weight.sum()
    assert np.array_equal(acc[group], _scanned_group_rows(ts, V, 48))
    counts = np.bincount(group, minlength=len(acc))
    assert len(counts) == 99 and counts.min() > 0  # every group holds a coset
    assert np.array_equal(counts, weight)


@settings(max_examples=30, deadline=None)
@given(
    f=small_forms,
    basis=sublattice_bases,
    swap=st.booleans(),
    d=st.sampled_from((2, 5, 9, 16, 25, 27, 48, 60)),
    chunk=st.sampled_from((1, 7, 8, 64)),
    v=st.tuples(*[st.integers(0, 59)] * 3),
)
def test_class_groups_match_a_direct_scan(f, basis, swap, d, chunk, v):
    # the groups are the products of the parts' labels: their weights count
    # the cosets of the class, and each coset's bitset is its group's
    g = change_of_basis(f, basis)
    if swap:
        f, g = g, f
    cls = ResidueClass(d, evaluate(g, v) % d)
    ts = find_transforms(f, g, d)
    with patch.object(congruence, "_KERNEL_CHUNK", chunk):
        congruence._kernel_classes.cache_clear()
        parts, weight, acc = congruence._class_groups(ts, g, cls)
    V = np.argwhere(_int64_grid(g, d) == cls.a)
    assert weight.sum() == len(V) and len(weight) == len(acc)
    for q, cells, _ in parts:
        assert np.array_equal(cells, np.flatnonzero(_int64_grid(g, q).ravel() == cls.a % q))
    group = _coset_groups(ts, parts, V)
    assert np.array_equal(np.bincount(group, minlength=len(acc)), weight)
    assert np.array_equal(acc[group], _scanned_group_rows(ts, V, d))
    congruence._kernel_classes.cache_clear()


@settings(max_examples=30, deadline=None)
@given(
    f=small_forms,
    basis=sublattice_bases,
    swap=st.booleans(),
    d=st.sampled_from((2, 5, 9, 16, 25, 27, 48, 60)),
    chunk=st.sampled_from((1, 7, 8, 64)),
)
def test_kernel_classes_match_a_direct_scan(f, basis, swap, d, chunk):
    # q = 5 and 25 reach p = 5, q = 27 reaches k = 3.  With g on a sublattice
    # of f the set is never empty; swapped, it is empty at some d, and each
    # coset then has the one empty row
    g = change_of_basis(f, basis)
    if swap:
        f, g = g, f
    ts = find_transforms(f, g, d)
    with patch.object(congruence, "_KERNEL_CHUNK", chunk):
        congruence._kernel_classes.cache_clear()
        classes = congruence._kernel_classes(ts)
    congruence._kernel_classes.cache_clear()
    assert [q for q, _, _ in classes] == congruence._prime_powers(d)
    for q, label, rows in classes:
        assert np.array_equal(rows[label], _scanned_kernel_rows(ts, q))


def test_kernel_classes_past_16_bit_codes():
    # mod 41 the codes X T_0 + y T_1 run up to 41^3 - 1 > 2^16 - 1
    f = QuadForm(2, 2, 3, 1, 1, 1)
    ts = find_transforms(f, f, 41)
    (q, label, rows), = congruence._kernel_classes(ts)
    assert len(ts) == 124 and len(rows) == 467
    assert np.array_equal(rows[label], _scanned_kernel_rows(ts, 41))


@pytest.mark.parametrize("q", [2, 3, 5, 8, 9, 16, 25, 27, 49])
def test_normal_forms_are_unit_multiples(q):
    # every coset is a unit multiple of its normal form (xs[i], y, z), and
    # each normal form is its own
    p = min(m for m in range(2, q + 1) if q % m == 0)
    xs, nf = congruence._normal_forms(q)
    assert xs == (0, *(p**j for j in range(len(xs) - 1))) and xs[-1] * p == q
    assert nf.dtype == np.min_scalar_type(len(xs) * q * q - 1) and nf.shape == (q**3,)
    forms = np.column_stack((np.array(xs)[nf // (q * q)], nf // q % q, nf % q))
    U = np.indices((q, q, q)).reshape(3, -1).T
    multiple = np.zeros(q**3, dtype=bool)
    for c in range(1, q):
        if c % p:
            multiple |= ((c * forms - U) % q == 0).all(axis=1)
    assert multiple.all()
    index = np.arange(len(xs) * q * q)
    assert np.array_equal(nf[np.array(xs)[index // (q * q)] * q * q + index % (q * q)], index)


def test_kernel_classes_memory_stays_bounded(s6):
    # the largest table the search builds: 720 transforms of S6 at d = 48
    f, g = s6
    ts = find_transforms(f, g, 48)
    congruence._kernel_classes.cache_clear()
    congruence._normal_forms.cache_clear()
    tracemalloc.start()
    try:
        congruence._kernel_classes(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ts) == 720
    assert peak < 10**6  # 1.0 MB


def test_cover_at_modulus_one():
    # no prime powers: every automorphism is integral, so the first covers all
    f = named_form("S11a")
    report = precedes(f, f, ResidueClass(1, 0))
    assert congruence._kernel_classes(report.transforms) == ()
    parts, weight, acc = congruence._class_groups(report.transforms, f, report.cls)
    assert parts == () and weight.tolist() == [1] and (acc == 0xFF).all()  # one group, every bit set
    assert report.cover.tolist() == [0]


def test_cover_of_an_empty_transform_set():
    # det 2M_f * det 2M_g is not a square: no transform at any d
    f, g = named_form("S1a"), named_form("S1b")
    report = precedes(f, g, ResidueClass(12, evaluate(g, (1, 0, 0)) % 12))
    assert len(report.transforms) == 0 and len(report.cosets)
    assert report.cover.dtype == np.int64 and report.cover.shape == (0,)


def test_cover_of_a_class_without_good_cosets():
    # x^2 + y^2 + 4z^2 takes no value = 3 (mod 4), so no transform makes a
    # coset of x^2 + y^2 + z^2 in the class (4, 3) integral
    f, g = QuadForm(1, 1, 4, 0, 0, 0), QuadForm(1, 1, 1, 0, 0, 0)
    report = precedes(f, g, ResidueClass(4, 3))
    assert len(report.transforms) == 48 and len(report.cosets) == len(report.bad) == 8
    assert report.weight.sum() == 8 and not report.acc.any()
    assert report.cover.dtype == np.int64 and report.cover.shape == (0,)


def test_precedes_results(s4):
    f, g = s4
    assert precedes(f, g, ResidueClass(12, 6)).all_good
    vacuous = precedes(f, g, ResidueClass(12, 10))
    assert vacuous.all_good and not vacuous.good  # no cosets at all
    assert not precedes(f, g, ResidueClass(12, 2)).all_good


def test_goodness_is_a_coset_property(s4):
    f, g = s4
    report = precedes(f, g, ResidueClass(12, 2))
    good = {v for v, _ in report.good}
    bad = set(report.bad)
    ts = report.transforms.matrices
    rng = random.Random(23)
    sample = rng.sample(sorted(good), 5) + rng.sample(sorted(bad), 5)
    for v in sample:
        for _ in range(3):
            lift = tuple(c + 12 * rng.randint(-3, 3) for c in v)
            lifted_good = any(
                all(c % 12 == 0 for c in (T[i][0] * lift[0] + T[i][1] * lift[1] + T[i][2] * lift[2] for i in range(3)))
                for T in ts
            )
            assert lifted_good == (v in good)


def test_transport_worked_values(s4):
    f, g = s4
    assert transport((1, 4, 2), T1, 4) == Vector3(4, 5, 1)
    assert evaluate(f, (4, 5, 1)) == evaluate(g, (1, 4, 2)) == 392
    assert transport((0, 0, 0), T1, 4) == Vector3(0, 0, 0)
    assert transport((1, 0, 0), T1, 4) == Vector3(1, 0, 0)
    assert transport((0, 1, 0), T1, 4) is None


def test_transport_preserves_values(s4):
    f, g = s4
    rng = random.Random(29)
    transforms = find_transforms(f, g, 4).matrices
    for _ in range(200):
        v = tuple(rng.randint(-15, 15) for _ in range(3))
        for T in transforms:
            w = transport(v, T, 4)
            if w is not None:
                assert evaluate(f, w) == evaluate(g, v)


def test_attainable_residues(s4):
    _, g = s4
    assert attainable_residues(g, 12) == (0, 2, 6, 8)
    assert attainable_residues(g, 2) == (0,)  # all coefficients even


positive_definite_forms = st.builds(
    QuadForm,
    *[st.integers(1, 30)] * 3,
    *[st.integers(-15, 15)] * 3,
).filter(is_positive_definite)


@settings(max_examples=60, deadline=None)
@given(positive_definite_forms, st.sampled_from((1, 2, 3, 5, 7, 11, 13, 36, 48, 72, 144)))
def test_attainable_residues_match_direct_scan(g, modulus):
    assert attainable_residues(g, modulus) == attained_residues(g, modulus)


def test_attainable_residues_scan_prime_powers_only(s6, monkeypatch):
    _, g = s6
    seen = []
    grid = congruence._value_grid.__wrapped__

    def recording_grid(form, d):
        seen.append(d)
        return grid(form, d)

    monkeypatch.setattr(congruence, "_value_grid", recording_grid)
    assert attainable_residues(g, 144) == attained_residues(g, 144)
    assert sorted(seen) == [9, 16]


def _int64_grid(g, d):
    """g(v) mod d on three int64 meshgrids, coefficients reduced mod d."""
    rng = np.arange(d, dtype=np.int64)
    X, Y, Z = np.meshgrid(rng, rng, rng, indexing="ij")
    a, b, c, r, s, t = (k % d for k in g.coefficients)
    return (a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y) % d


@pytest.mark.parametrize("d", [1, 2, 9, 16, 48, 97])
def test_value_grid_matches_int64_reference(d):
    # every coefficient is -1 mod d, so every reduced term is as large as it gets
    g = QuadForm(5 * d - 1, 5 * d - 1, 5 * d - 1, -1, -1, -1)
    grid = congruence._value_grid.__wrapped__(g, d)
    assert grid.dtype == np.uint16
    assert np.array_equal(grid, _int64_grid(g, d))


def test_value_grid_reduces_huge_coefficients():
    d = 48
    big = QuadForm(*(10**40 * d - 1 for _ in range(3)), *(-(10**40) * d - 1 for _ in range(3)))
    small = QuadForm(d - 1, d - 1, d - 1, -1, -1, -1)
    grid = congruence._value_grid.__wrapped__(big, d)
    assert np.array_equal(grid, _int64_grid(small, d))
    for v in ((0, 0, 0), (1, 2, 3), (47, 46, 45), (5, 0, 47)):
        assert grid[v] == evaluate(big, v) % d


def test_residue_scans_reduce_huge_coefficients():
    # 12^30 is divisible by every modulus below, so both forms agree mod d
    big, small = QuadForm(12**30 + 1, 1, 1, 0, 0, 0), QuadForm(1, 1, 1, 0, 0, 0)
    cls = ResidueClass(12, 3)
    assert residue_vectors(big, cls) == residue_vectors(small, cls)
    assert attainable_residues(big, 144) == attainable_residues(small, 144)
    attained = certificate._attained(big, 144, {})
    assert tuple(np.flatnonzero(attained).tolist()) == attained_residues(small, 144)


def test_cover_check_worked_examples(s4, s7):
    _, g4 = s4
    report = cover_check(
        g4, [ResidueClass(4, 0), ResidueClass(12, 2), ResidueClass(12, 6), ResidueClass(12, 10)]
    )
    assert report.ok
    _, g7 = s7
    classes7 = [ResidueClass(4, 2)] + [ResidueClass(24, a) for a in (0, 4, 8, 12, 16, 20)]
    assert cover_check(g7, classes7).ok
    assert cover_check(g4, [ResidueClass(1, 0)]).ok


def test_cover_check_reports_uncovered(s4):
    _, g = s4
    report = cover_check(g, [ResidueClass(4, 0), ResidueClass(12, 6)])
    assert not report.ok
    assert 2 in report.uncovered
    with pytest.raises(ValueError):
        cover_check(g, [])


def test_residue_counts_invariant_under_change_of_basis(s4):
    _, g = s4
    U = ((1, 2, 0), (0, 1, 1), (0, 0, 1))
    moved = change_of_basis(g, U)
    for cls in (ResidueClass(4, 0), ResidueClass(12, 2), ResidueClass(12, 6)):
        assert len(residue_vectors(g, cls)) == len(residue_vectors(moved, cls))


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(0, 0)
    with pytest.raises(ValueError):
        ResidueClass(4, 4)
    with pytest.raises(ValueError):
        ResidueClass(4, -1)
    assert str(ResidueClass(12, 2)) == "12n+2"
