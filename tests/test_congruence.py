import random
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
from ternrep.congruence import attainable_residues, classify_good
from ternrep.forms import Vector3
from ternrep.isometry import TransformSet
from ternrep import certificate, congruence

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
    report = classify_good(f, g, ResidueClass(4, 0), find_transforms(f, g, 4))
    assert report.all_good and len(report.good) == 16
    # T1 alone transports every coset
    for v, _ in report.good:
        assert transport(v, T1, 4) is not None


def test_classify_good_bad_set_characterization(s4):
    f, g = s4
    report = classify_good(f, g, ResidueClass(12, 2), find_transforms(f, g, 12))
    assert len(report.bad) == 32
    assert len(report.good) == 864 - 32
    for v in report.bad:
        assert v.x % 3 != 0
        assert v.y % 12 in (3, 9)
        assert v.z % 12 in (3, 9)


def test_classify_good_self_pair_all_good():
    f = named_form("S11a")
    for cls in (ResidueClass(4, 0), ResidueClass(4, 3), ResidueClass(6, 1)):
        ts = find_transforms(f, f, cls.d)
        report = classify_good(f, f, cls, ts)
        assert report.all_good  # d*I makes every coset good


def test_classify_good_checks_matching_arguments(s4):
    f, g = s4
    with pytest.raises(ValueError):
        classify_good(f, g, ResidueClass(12, 2), find_transforms(f, g, 4))


@pytest.mark.parametrize("chunk", [1, 7, congruence._KERNEL_CHUNK])
def test_witness_is_the_first_integral_transform(s4, monkeypatch, chunk):
    f, g = s4
    monkeypatch.setattr(congruence, "_KERNEL_CHUNK", chunk)
    congruence._kernel_bits.cache_clear()  # build the bitsets with this chunk
    cls = ResidueClass(12, 2)
    ts = find_transforms(f, g, 12)
    report = classify_good(f, g, cls, ts)
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
    block=st.sampled_from((5, congruence._COSET_BLOCK)),
)
def test_witness_matches_first_transport(f, other, basis, swap, d, v, chunk, block):
    # with g on a sublattice of f, T = d U makes every coset good; with f on
    # a sublattice of g, classes at d divisible by det U have some bad cosets
    g = other if basis is None else change_of_basis(f, basis)
    if swap:
        f, g = g, f
    cls = ResidueClass(d, evaluate(g, v) % d)  # a class with at least one coset
    ts = find_transforms(f, g, d)
    with patch.object(congruence, "_KERNEL_CHUNK", chunk), \
            patch.object(congruence, "_COSET_BLOCK", block):
        congruence._kernel_bits.cache_clear()
        report = classify_good(f, g, cls, ts)
    expected = [
        next((i for i, T in enumerate(ts.matrices) if transport(w, T, d) is not None), -1)
        for w in residue_vectors(g, cls)
    ]
    assert report.witness.tolist() == expected


def test_kernel_bits_built_once_per_transform_set(s6, monkeypatch):
    f, g = s6
    scanned = []
    classify = congruence.classify_good

    def recording(f, g, cls, ts):
        report = classify(f, g, cls, ts)
        if len(report.cosets) and len(ts) and cls.d > 1:  # the calls that read bitsets
            scanned.append((ts.f, ts.g, ts.d))
        return report

    monkeypatch.setattr(congruence, "classify_good", recording)
    congruence._kernel_bits.cache_clear()
    search_cover(f, g)
    info = congruence._kernel_bits.cache_info()
    assert len(set(scanned)) < len(scanned)  # several classes share a modulus
    assert info.misses == len(set(scanned))
    assert info.hits == len(scanned) - len(set(scanned))


def test_classify_good_independent_of_transform_order(s4):
    f, g = s4
    ts = find_transforms(f, g, 12)
    reversed_ts = TransformSet(f, g, 12, tuple(reversed(ts.matrices)))
    a = classify_good(f, g, ResidueClass(12, 2), ts)
    b = classify_good(f, g, ResidueClass(12, 2), reversed_ts)
    assert {v for v, _ in a.good} == {v for v, _ in b.good}
    assert set(a.bad) == set(b.bad)


def test_precedes_results(s4):
    f, g = s4
    assert precedes(f, g, ResidueClass(12, 6)).all_good
    vacuous = precedes(f, g, ResidueClass(12, 10))
    assert vacuous.all_good and not vacuous.good  # no cosets at all
    assert not precedes(f, g, ResidueClass(12, 2)).all_good


def test_goodness_is_a_coset_property(s4):
    f, g = s4
    report = classify_good(f, g, ResidueClass(12, 2), find_transforms(f, g, 12))
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
    """2*g(v) mod 2d on three int64 meshgrids, coefficients reduced mod d."""
    rng = np.arange(d, dtype=np.int64)
    X, Y, Z = np.meshgrid(rng, rng, rng, indexing="ij")
    a, b, c, r, s, t = (k % d for k in g.coefficients)
    return 2 * (a * X * X + b * Y * Y + c * Z * Z + r * Y * Z + s * X * Z + t * X * Y) % (2 * d)


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
        assert grid[v] == 2 * evaluate(big, v) % (2 * d)


def test_residue_scans_reduce_huge_coefficients():
    # 12^30 is divisible by every modulus below, so both forms agree mod d
    big, small = QuadForm(12**30 + 1, 1, 1, 0, 0, 0), QuadForm(1, 1, 1, 0, 0, 0)
    cls = ResidueClass(12, 3)
    assert residue_vectors(big, cls) == residue_vectors(small, cls)
    assert attainable_residues(big, 144) == attainable_residues(small, 144)
    assert tuple(certificate._attained_residues(big, 144)) == attained_residues(small, 144)


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
