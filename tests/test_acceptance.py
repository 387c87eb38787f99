"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
empirical sweep bound is 10**6 by default; set TERNREP_DEEP=1 to rerun
criterion 7 at 3 * 10**6.
"""

import json
import os
import random
import time

import numpy as np

import oracle
from ternrep import (
    ResidueClass,
    SET_IDS,
    TABLE,
    build_escape,
    certificate,
    doubled_gram,
    evaluate,
    find_transforms,
    kaplansky_family_pair,
    named_form,
    precedes,
    prove_pair,
    representations,
    represented_mask,
    subform_witness,
    table_set,
    theta,
    verify_pairwise,
)
from ternrep import _mat
from ternrep.congruence import classify_good
from ternrep.prover import EscapeArgument, evaluate_escape_matrix

BOUND = 3 * 10**6 if os.environ.get("TERNREP_DEEP") else 10**6

S4_SUBFORM_T = ((1, 0, 0), (0, 0, -2), (0, -1, 1))
TTILDE = ((12, 6, 2), (0, 0, 12), (0, -12, -8))

# every precedence relation of the worked cases: (sub pair id, classes)
RELATIONS = {
    ("S4f", "S4g"): [(4, 0), (12, 6), (12, 10)],
    ("S6f", "S6g"): [(4, 2), (8, 0), (24, 12), (24, 20), (48, 4), (48, 28)],
    ("S7f", "S7g"): [(4, 2), (24, 0), (24, 4), (24, 8), (24, 12), (24, 16), (24, 20)],
    ("S8f", "S8g"): [(4, 0), (12, 2), (12, 6), (36, 10), (36, 22), (36, 34)],
    ("S8g", "S8f"): [(4, 0), (12, 2), (12, 6), (36, 10), (36, 22), (36, 34)],
}


def _report(number, label, started):
    print(f"criterion {number} ({label}): PASS [{time.perf_counter() - started:.1f}s]")


def test_criterion_01_subform_witnesses():
    t0 = time.perf_counter()
    f4, g4 = named_form("S4f"), named_form("S4g")
    assert _mat.congruence(S4_SUBFORM_T, doubled_gram(g4)) == doubled_gram(f4)
    for sid in ("S4", "S6", "S7"):
        f, g = named_form(f"{sid}f"), named_form(f"{sid}g")
        T = subform_witness(f, g)
        assert T is not None, f"{sid}: no subform witness found"
        assert _mat.congruence(T, doubled_gram(g)) == doubled_gram(f)
    _report(1, "subform witnesses", t0)


def test_criterion_02_transform_set_counts():
    t0 = time.perf_counter()
    f, g = named_form("S4f"), named_form("S4g")
    ts4 = find_transforms(f, g, 4)
    assert len(ts4) == 8
    assert ((4, 2, 2), (0, 4, 2), (0, 0, 2)) in ts4
    assert len(find_transforms(f, g, 12)) == 144
    _report(2, "transform-set counts 8 and 144", t0)


def test_criterion_03_residue_sets():
    t0 = time.perf_counter()
    f, g = named_form("S4f"), named_form("S4g")
    from ternrep import residue_vectors

    mod4 = residue_vectors(g, ResidueClass(4, 0))
    assert len(mod4) == 16
    assert set(map(tuple, mod4)) == {
        (x, y, z) for x in range(4) for y in (0, 2) for z in (0, 2)
    }
    mod12 = residue_vectors(g, ResidueClass(12, 2))
    assert len(mod12) == 864
    report = classify_good(f, g, ResidueClass(12, 2), find_transforms(f, g, 12))
    expected_bad = {
        (x, y, z)
        for x in range(12)
        if x % 3 != 0
        for y in (3, 9)
        for z in (3, 9)
    }
    assert set(map(tuple, report.bad)) == expected_bad
    assert len(report.bad) == 32
    _report(3, "residue sets 16 / 864 / 32 bad", t0)


def test_criterion_04_precedence_regression():
    t0 = time.perf_counter()
    for (fname, gname), classes in RELATIONS.items():
        f, g = named_form(fname), named_form(gname)
        for d, a in classes:
            report = precedes(f, g, ResidueClass(d, a))
            assert report.all_good, f"{gname} should precede {fname} on ({d},{a})"
    assert not precedes(named_form("S4f"), named_form("S4g"), ResidueClass(12, 2)).all_good
    _report(4, "precedence regression, 27 relations + 1 negative", t0)


def test_criterion_05_escape_argument():
    t0 = time.perf_counter()
    f, g = named_form("S4f"), named_form("S4g")
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    escape = build_escape(f, g, cls, report)
    assert isinstance(escape, EscapeArgument)
    displayed = evaluate_escape_matrix(f, g, cls, report, TTILDE)
    assert isinstance(displayed, EscapeArgument), f"displayed matrix failed: {displayed}"
    assert _mat.axis(TTILDE, 12) == (1, 0, 0)
    assert _mat.det(TTILDE) // 12**2 == 12
    assert _mat.is_finite_order_scaled(TTILDE, 12) is False
    assert displayed.axis == (1, 0, 0) and displayed.base == 8
    witness = displayed.witness
    assert evaluate(f, witness) == 8 and set(map(abs, witness)) == {0, 1}
    _report(5, "escape argument for the stuck class", t0)


def test_criterion_06_end_to_end_proofs_and_perturbations():
    t0 = time.perf_counter()
    rng = random.Random(12345)
    from test_certificate import get_at, matrix_paths

    for sid in ("S4", "S6", "S7", "S8"):
        f, g = named_form(f"{sid}f"), named_form(f"{sid}g")
        proof = prove_pair(f, g, empirical_bound=BOUND)
        blob = certificate.emit(proof)
        assert certificate.check(blob), f"{sid}: emitted certificate rejected"
        cert = json.loads(blob)
        paths = matrix_paths(cert)
        for _ in range(100):
            tampered = json.loads(blob)
            path = rng.choice(paths)
            M = get_at(tampered, path)
            i, j = rng.randrange(3), rng.randrange(3)
            M[i][j] += rng.choice([-3, -2, -1, 1, 2, 3])
            assert not certificate.check(tampered).ok, f"{sid}: perturbation accepted at {path}"
    _report(6, "end-to-end proofs + 400 perturbations rejected", t0)


def test_criterion_07_table_verification():
    t0 = time.perf_counter()
    for sid in SET_IDS:
        # two threads, so that the threaded path sees the whole catalog
        value_count, isometric = verify_pairwise(table_set(sid, 2), BOUND, jobs=2)
        assert not isometric, f"{sid}: some members are isometric"
        assert value_count > 0
    _report(7, f"all 15 sets equal and non-isometric up to {BOUND}", t0)


def test_criterion_08_vacuous_class_empirically():
    t0 = time.perf_counter()
    g = named_form("S4g")
    mask = represented_mask(g, BOUND)
    values = np.flatnonzero(mask)
    assert not np.any(values % 12 == 10)
    _report(8, "no value of g is 10 mod 12", t0)


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(999)
    for sid in SET_IDS:
        for form in TABLE[sid]:
            counts = oracle.value_counts(form, 2000)
            assert np.array_equal(theta(form, 2000).coeffs, counts)
            assert np.array_equal(represented_mask(form, 2000), counts > 0)
            for n in rng.sample(range(2001), 5):
                assert len(representations(form, n)) == counts[n]
    _report(9, "oracle equivalence for all 36 catalog forms to 2000", t0)


def test_criterion_10_inclusion_property():
    t0 = time.perf_counter()
    limit = 10**5
    for (fname, gname), classes in RELATIONS.items():
        f, g = named_form(fname), named_form(gname)
        mask_f = represented_mask(f, limit)
        mask_g = represented_mask(g, limit)
        for d, a in classes:
            in_class = np.zeros(limit + 1, dtype=bool)
            in_class[a::d] = True
            covered = mask_g & in_class
            assert not np.any(covered & ~mask_f), f"inclusion fails for ({d},{a})"
    _report(10, "proved relations imply the set inclusions at 1e5", t0)


def test_criterion_11_conjectured_families():
    t0 = time.perf_counter()
    cases = [("iii", 1, 1), ("iii", 2, 1), ("iii", 1, 2), ("iv", 3, 1), ("iv", 4, 1)]
    for kind, a, b in cases:
        p, q = kaplansky_family_pair(kind, a, b)
        assert np.array_equal(represented_mask(p, 10**4), represented_mask(q, 10**4)), (
            f"family {kind} ({a},{b}) disagrees"
        )
    _report(11, "family pairs agree up to 1e4", t0)


def test_criterion_12_primitive_representations():
    t0 = time.perf_counter()
    f, g = named_form("S8f"), named_form("S8g")
    mf = represented_mask(f, 10**5, primitive=True)
    mg = represented_mask(g, 10**5, primitive=True)
    assert np.array_equal(mf, mg)
    _report(12, "primitive represented sets of the S8 pair agree to 1e5", t0)
