import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ternrep import (
    ClassUnprovable,
    CoverIncomplete,
    EscapeArgument,
    MismatchAt,
    NoEscapeMatrix,
    NoRationalTransform,
    NotPositiveDefinite,
    ProofError,
    QuadForm,
    ResidueClass,
    SET_IDS,
    build_escape,
    change_of_basis,
    doubled_gram,
    evaluate,
    find_transforms,
    is_positive_definite,
    kaplansky_family_pair,
    named_form,
    precedes,
    prove_direction,
    prove_pair,
    representations,
    represented_mask,
    residue_vectors,
    scaled_automorphisms,
    search_cover,
    table_set,
    transport,
    verify_pairwise,
    verify_table,
)
from ternrep.congruence import GoodVectorReport, attainable_residues
from ternrep.forms import Vector3
from ternrep.prover import CoverDirection, SubformDirection, emit
from ternrep import _mat, certificate, congruence, isometry, prover

TTILDE = ((12, 6, 2), (0, 0, 12), (0, -12, -8))

S6_CLASSES = [(4, 2), (8, 0), (24, 12), (24, 20), (48, 4), (48, 28)]
S4_CLASSES = [(4, 0), (12, 6), (12, 10), (12, 2)]


def test_prove_direction_pure_good(s6):
    f, g = s6
    direction = prove_direction(f, g, S6_CLASSES)
    assert isinstance(direction, CoverDirection)
    assert direction.sub == g and direction.sup == f
    assert len(direction.classes) == 6
    assert all(p.report.all_good and p.escape is None for p in direction.classes)


def test_prove_direction_with_escape(s4):
    f, g = s4
    direction = prove_direction(f, g, S4_CLASSES)
    by_class = {(p.cls.d, p.cls.a): p for p in direction.classes}
    assert by_class[(12, 2)].escape is not None
    assert all(p.escape is None for key, p in by_class.items() if key != (12, 2))


def test_prove_direction_trivial_self_pair():
    f = named_form("S10a")
    direction = prove_direction(f, f, [(1, 0)])
    assert len(direction.classes) == 1
    assert direction.classes[0].report.all_good


def test_prove_direction_incomplete_cover(s4):
    f, g = s4
    with pytest.raises(CoverIncomplete):
        prove_direction(f, g, [(4, 0), (12, 6)])  # residue 2 mod 12 uncovered


def test_prove_direction_unprovable_class():
    f = QuadForm(1, 1, 1, 0, 0, 0)
    g = QuadForm(1, 1, 2, 0, 0, 0)  # represents 7, f does not
    with pytest.raises(ClassUnprovable):
        prove_direction(f, g, [(1, 0)])


def test_build_escape_s4(s4):
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    escape = build_escape(f, g, cls, report)
    assert isinstance(escape, EscapeArgument)
    # defining identity
    G = doubled_gram(g)
    assert _mat.congruence(escape.matrix, G) == _mat.scalar_mul(144, G)
    # every bad coset becomes integral
    assert len(report.bad) == 32
    for u in report.bad:
        assert transport(u, escape.matrix, 12) is not None
    # infinite order of matrix / 12
    assert not _mat.is_finite_order_scaled(escape.matrix, 12)
    # exceptional family 8 t^2 on the axis, witnessed by a vector of value 8 under f
    assert escape.axis == Vector3(1, 0, 0) and escape.base == evaluate(g, escape.axis) == 8
    assert evaluate(f, escape.witness) == escape.base


def test_unrepresented_axis_value_is_named(s4):
    # 3(x^2 + y^2 + z^2) misses 8, the value on the axis of every candidate
    # that passes integrality and finite order
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    with pytest.raises(NoEscapeMatrix) as info:
        build_escape(QuadForm(3, 3, 3, 0, 0, 0), g, cls, report)
    assert str(info.value) == ("no scaled automorphism escapes class (12,2); "
                               "axis value 8 is not represented")


def _batched_filter(g, cls, report):
    """The scaled automorphisms of g at cls.d as tuples, and per matrix
    whether it survives the batched integrality and finite-order filter
    of build_escape."""
    autos = scaled_automorphisms(g, cls.d)
    survives = prover._escape_candidates(autos, report)
    return list(map(_mat.from_rows, autos.matrices)), survives.tolist()


def test_displayed_escape_matrix_is_valid(s4):
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    matrices, survives = _batched_filter(g, cls, report)
    assert survives[matrices.index(TTILDE)]
    outcome = _reference_escape_outcome(f, g, cls, report, TTILDE)
    assert isinstance(outcome, EscapeArgument)
    assert (outcome.axis, outcome.base) == (Vector3(1, 0, 0), 8)


_POWER_RANGE = 6  # the reference excludes the eigenlines of E^k, k <= this


def _reference_escape_outcome(f, g, cls, report, matrix):
    """Reference for one escape candidate: integrality tested coset by
    coset, eigenlines of the first powers of the matrix from the sympy oracle.

    The oracle finds every family of every power, so an escape argument is
    returned only when there is exactly one; any other count is returned as
    ("families", ...), which no EscapeArgument equals."""
    d = cls.d
    bad = report.bad
    for u in bad:
        if any(sum(matrix[i][j] * u[j] for j in range(3)) % d for i in range(3)):
            return "integrality"
    if _mat.is_finite_order_scaled(matrix, d):
        return "finite_order"
    coset_pool = {v for v, _ in report.good} | set(bad)
    for u in bad:
        w = transport(u, matrix, d)
        if Vector3(*(c % d for c in w)) not in coset_pool:
            return "descent"
    families, seen, base_failure = [], set(), None
    power = _mat.IDENTITY
    for k in range(1, _POWER_RANGE + 1):
        power = _mat.mat_mul(power, matrix)
        lines = oracle.eigen_lines(power)
        eigenvalues = [lam for _, lam in lines]
        if len(set(eigenvalues)) < len(eigenvalues):
            return "eigenspace_dimension"
        for v, lam in lines:
            if v in seen:
                continue
            base = evaluate(g, v)
            reps = representations(f, base)
            if not len(reps):
                base_failure = base
                continue
            seen.add(v)
            families.append((Vector3(*v), base, Vector3(*reps[0].tolist())))
    if base_failure is not None:
        return ("base", base_failure)
    if len(families) != 1:
        return ("families", tuple(families))
    return EscapeArgument(matrix, *families[0])


# whether some scaled automorphism escapes the class; S9 resists, its 52
# candidates failing integrality (48) or finite order (4)
ESCAPE_EXISTS = {"S4": True, "S6": True, "S9": False}


@pytest.mark.parametrize("sid, cls", [
    ("S4", ResidueClass(12, 2)), ("S6", ResidueClass(12, 0)), ("S9", ResidueClass(36, 2)),
])
def test_escape_outcomes_match_per_coset_reference(sid, cls):
    f, g = table_set(sid, 2)
    report = precedes(f, g, cls)
    assert report.bad
    matrices, survives = _batched_filter(g, cls, report)
    outcomes = [_reference_escape_outcome(f, g, cls, report, M) for M in matrices]
    assert survives == [o not in ("integrality", "finite_order") for o in outcomes]
    assert "integrality" in outcomes
    # every survivor before the returned one has an axis value f misses
    passed = [o for o, kept in zip(outcomes, survives) if kept]
    escapes = [o for o in passed if isinstance(o, EscapeArgument)]
    assert bool(escapes) == ESCAPE_EXISTS[sid]
    if escapes:
        first = passed.index(escapes[0])
        assert all(o[0] == "base" for o in passed[:first])
        assert build_escape(f, g, cls, report) == escapes[0]
    else:
        with pytest.raises(NoEscapeMatrix):
            build_escape(f, g, cls, report)
    if sid == "S9":
        assert Counter(outcomes) == {"integrality": 48, "finite_order": 4}


FINITE_ORDER_MODULI = (1, 2, 3, 4, 6, 8, 12, 24, 36, 48)


def test_closed_form_finite_order_matches_matrix_powers():
    # every scaled automorphism of the 36 catalog forms at scale 2
    total = finite = 0
    for sid in SET_IDS:
        for g in table_set(sid, 2):
            for d in FINITE_ORDER_MODULI:
                stack = scaled_automorphisms(g, d).matrices
                expected = [_mat.is_finite_order_scaled(E, d) for E in map(_mat.from_rows, stack)]
                batched = prover._has_finite_order(stack.transpose(1, 2, 0), d)
                assert batched.tolist() == expected, (g, d)
                total, finite = total + len(expected), finite + sum(expected)
    assert (total, finite) == (17174, 7608)


random_forms = st.builds(
    QuadForm,
    *[st.integers(1, 7)] * 3,
    *[st.integers(-7, 7)] * 3,
).filter(is_positive_definite)


@settings(max_examples=20, deadline=None)
@given(random_forms, st.sampled_from(FINITE_ORDER_MODULI[:8]))
def test_closed_form_finite_order_on_random_forms(g, d):
    stack = scaled_automorphisms(g, d).matrices
    expected = [_mat.is_finite_order_scaled(E, d) for E in map(_mat.from_rows, stack)]
    assert prover._has_finite_order(stack.transpose(1, 2, 0), d).tolist() == expected


@settings(max_examples=8, deadline=None)
@given(random_forms, st.sampled_from((2, 3, 4, 6, 8, 12)))
def test_axis_is_the_only_rational_eigenline_of_each_power(g, d):
    # the oracle finds every rational eigenline of E^k, k = 1..6, in general
    for E in map(_mat.from_rows, scaled_automorphisms(g, d).matrices):
        if _mat.is_finite_order_scaled(E, d):
            continue
        v, lam = _mat.axis(E, d), _mat.det(E) // (d * d)
        assert abs(lam) == d
        power = _mat.IDENTITY
        for k in range(1, _POWER_RANGE + 1):
            power = _mat.mat_mul(power, E)
            assert oracle.eigen_lines(power) == [(v, lam**k)]


def test_escape_search_result_is_the_plain_scaled_automorphisms(s4):
    # build_escape and a plain scaled_automorphisms call share one cached search
    f, g = s4
    cls = ResidueClass(12, 2)
    build_escape(f, g, cls, precedes(f, g, cls))
    before = find_transforms.cache_info()
    scaled_automorphisms(g, 12)
    after = find_transforms.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_integrality_checks_every_bad_coset_group(s4):
    # one more bad group, holding a good coset that TTILDE leaves stuck,
    # turns TTILDE from a survivor into an integrality failure
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    stray = next(v for v, _ in report.good if transport(v, TTILDE, 12) is None)
    group = 0  # the group of the stray coset, the last prime power fastest
    for (q, _, present), (_, label, _) in zip(report.parts, congruence._kernel_classes(report.transforms)):
        rank = np.searchsorted(present, label[(stray.x % q * q + stray.y % q) * q + stray.z % q])
        group = group * len(present) + int(rank)
    acc = report.acc.copy()
    acc[group] = 0
    variant = GoodVectorReport(f, g, cls, report.transforms, report.parts, report.weight, acc)
    assert set(report.bad) < set(variant.bad) and stray in variant.bad
    assert len(variant.bad) == 32 + report.weight[group]
    groups = []
    for stuck, r in ((False, report), (True, variant)):
        # the reference's descent pool is the whole class in both
        matrices, survives = _batched_filter(g, cls, r)
        outcome = _reference_escape_outcome(f, g, cls, r, TTILDE)
        assert survives[matrices.index(TTILDE)] == (outcome != "integrality")
        assert (outcome == "integrality") == stuck
        groups.append(int((~r.acc.any(axis=1)).sum()))
    # TTILDE leaves the stray coset stuck, so it has a group of its own
    assert groups[0] <= 32 and groups[1] == groups[0] + 1


ESCAPE_MODULI = (4, 6, 8, 9, 12, 24, 36, 48)


def _small_form(rng):
    while True:
        form = QuadForm(*(rng.randint(1, 6) for _ in range(3)), *(rng.randint(-3, 3) for _ in range(3)))
        if is_positive_definite(form):
            return form


def test_escape_candidates_match_a_direct_scan():
    # f on a sublattice of g of index 2 or 3 leaves bad cosets at many d.  A
    # candidate is a scaled automorphism of infinite order that makes every
    # bad coset integral, each the tuple of its parts mod the prime powers of d
    mixed = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = _small_form(rng)
        U = ((1, rng.randint(-1, 1), rng.randint(-1, 1)), (0, 1, rng.randint(-1, 1)), (0, 0, rng.choice((2, 3))))
        f = change_of_basis(g, U)
        d = rng.choice(ESCAPE_MODULI)
        cls = ResidueClass(d, evaluate(g, [rng.randrange(d) for _ in range(3)]) % d)
        # the first-transport reference: a coset is bad when no transform makes it integral
        V = np.array(residue_vectors(g, cls), dtype=np.int64)
        good = np.zeros(len(V), dtype=bool)
        for T in find_transforms(f, g, d).matrices:
            good |= ~((V @ T.T) % d).any(axis=1)
        bad = V[~good]
        autos = scaled_automorphisms(g, d)
        expected = [not ((bad @ E.T) % d).any() and not _mat.is_finite_order_scaled(_mat.from_rows(E), d)
                    for E in autos.matrices]
        assert prover._escape_candidates(autos, precedes(f, g, cls)).tolist() == expected, (seed, g, d)
        mixed += len(bad) > 0 and len(congruence._prime_powers(d)) > 1
    assert mixed >= 10  # bad cosets with parts mod two prime powers


COSET_VIEWS = {"cosets", "witness", "good", "bad"}


def test_prover_builds_no_coset_tuples(s4, s6, s8):
    # the coset views of a report are built on demand; neither the search,
    # escapes included, nor emit reads them
    escaped = []
    for (f, g), classes in ((s6, S6_CLASSES), (s4, S4_CLASSES)):
        for proof in prove_direction(f, g, classes).classes:
            assert not set(vars(proof.report)) & COSET_VIEWS, proof.cls
            if proof.escape is not None:
                escaped.append(proof.cls)
    assert escaped == [ResidueClass(12, 2)]
    for f, g in (s4, s8):
        proof = prove_pair(f, g, empirical_bound=1000)
        emit(proof)
        covers = [d for d in (proof.f_in_g, proof.g_in_f) if isinstance(d, CoverDirection)]
        assert covers
        for direction in covers:
            for class_proof in direction.classes:
                assert not set(vars(class_proof.report)) & COSET_VIEWS, class_proof.cls


def test_failed_search_memory_stays_bounded():
    # a report keeps the groups of its class, not its cosets: from cold
    # caches the failed S9 search peaks at about 0.33 MB, against 1.66 MB
    # with an array of the cosets of each class
    f, g = table_set("S9", 2)
    for cache in (isometry.find_transforms, congruence._kernel_classes,
                  congruence._value_grid, congruence._normal_forms):
        cache.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CoverIncomplete):
            prove_pair(f, g, empirical_bound=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # 1.0 MB


def test_failed_sheared_search_memory_stays_bounded():
    # a sheared S5 pair (perfbench seed 1): one walk per transform set and a
    # join without the (c1, c2) table peak at about 1.1 MB from cold caches,
    # against 3.6 MB with a walk per norm and a dense third-column table
    f, g = QuadForm(4, 82, 100, -170, -2, 2), QuadForm(4, 84, 82, 162, -4, 0)
    for cache in (isometry.find_transforms, congruence._kernel_classes,
                  congruence._value_grid, congruence._normal_forms):
        cache.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CoverIncomplete):
            prove_pair(f, g, empirical_bound=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_scaled_identity_is_rejected_as_escape(s4):
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    matrices, survives = _batched_filter(g, cls, report)
    assert _reference_escape_outcome(f, g, cls, report, _mat.scaled_identity(12)) == "finite_order"
    assert not survives[matrices.index(_mat.scaled_identity(12))]


def test_escape_requires_bad_cosets(s4):
    f, g = s4
    report = precedes(f, g, ResidueClass(4, 0))
    with pytest.raises(ValueError):
        build_escape(f, g, ResidueClass(4, 0), report)


def test_escape_descent_preserves_values(s4):
    f, g = s4
    cls = ResidueClass(12, 2)
    report = precedes(f, g, cls)
    escape = build_escape(f, g, cls, report)
    rng = random.Random(41)
    for u in report.bad[:8]:
        for _ in range(3):
            lift = tuple(c + 12 * rng.randint(-2, 2) for c in u)
            image = transport(lift, escape.matrix, 12)
            assert image is not None
            assert evaluate(g, image) == evaluate(g, lift)


def test_prove_pair_structures(s4, s7, s8):
    f7, g7 = s7
    proof = prove_pair(f7, g7, empirical_bound=20000)
    assert isinstance(proof.f_in_g, SubformDirection)
    assert isinstance(proof.g_in_f, CoverDirection)

    f8, g8 = s8
    proof8 = prove_pair(f8, g8, empirical_bound=20000)
    assert isinstance(proof8.f_in_g, CoverDirection)  # no subform either way
    assert isinstance(proof8.g_in_f, CoverDirection)

    f4, _ = s4
    trivial = prove_pair(f4, f4, empirical_bound=1000)
    assert isinstance(trivial.f_in_g, SubformDirection)
    assert trivial.f_in_g.witness == _mat.IDENTITY


# the family pairs of demos/06_family_pairs.py
FAMILY_PAIRS = [("iii", 1, 1), ("iii", 2, 1), ("iii", 1, 2), ("iii", 3, 2),
                ("iv", 3, 1), ("iv", 4, 1), ("iv", 5, 2)]


@pytest.mark.parametrize("kind,a,b", FAMILY_PAIRS)
def test_family_pairs_take_the_subform_shortcut_for_g_in_f(kind, a, b):
    p, q = kaplansky_family_pair(kind, a, b)
    proof = prove_pair(p, q, empirical_bound=10**4)
    assert isinstance(proof.g_in_f, SubformDirection)
    assert (proof.g_in_f.sub, proof.g_in_f.sup) == (q, p)
    assert certificate.check(prover.emit(proof)).ok


def test_prove_pair_directions_mirror_when_swapped(s7):
    f7, g7 = s7
    forward = prove_pair(f7, g7, empirical_bound=20000)
    backward = prove_pair(g7, f7, empirical_bound=20000)
    assert type(backward.f_in_g) is type(forward.g_in_f) is CoverDirection
    assert type(backward.g_in_f) is type(forward.f_in_g) is SubformDirection
    assert backward.g_in_f.witness == forward.f_in_g.witness


def test_explicit_classes_override_a_subform_witness(s7):
    f7, g7 = s7
    # Q(f7) <= Q(g7) has a subform witness; the list still wins
    proof = prove_pair(g7, f7, classes_g_in_f=[(4, 0), (4, 2)], empirical_bound=20000)
    assert isinstance(proof.g_in_f, CoverDirection)
    assert [(p.cls.d, p.cls.a) for p in proof.g_in_f.classes] == [(4, 0), (4, 2)]


def test_prove_pair_with_explicit_lists(s8):
    f, g = s8
    classes = [(4, 0), (12, 2), (12, 6), (36, 10), (36, 22), (36, 34)]
    proof = prove_pair(
        f, g, classes_g_in_f=classes, classes_f_in_g=classes, empirical_bound=20000
    )
    assert [(p.cls.d, p.cls.a) for p in proof.g_in_f.classes] == classes
    assert [(p.cls.d, p.cls.a) for p in proof.f_in_g.classes] == classes
    assert all(p.report.all_good for p in proof.g_in_f.classes)
    assert all(p.report.all_good for p in proof.f_in_g.classes)


# what search_cover finds on the catalog pairs, recorded from the search
# that recomputed the attainable residues for every (d, a): the classes for
# Q(g) <= Q(f) and Q(f) <= Q(g), or the type and message of its ProofError
SEARCHED = {
    "S4": ([(4, 0), (12, 2), (12, 6)], [(4, 0), (4, 2)]),
    "S6": ([(4, 2), (8, 0), (12, 0), (48, 4), (48, 28)], [(4, 0), (4, 2)]),
    "S7": ([(4, 2), (12, 0), (12, 4), (12, 8)], [(4, 0), (4, 2)]),
    "S8": ([(4, 0), (12, 2), (12, 6), (36, 10), (36, 22), (36, 34)],) * 2,
}
NO_TRANSFORM = "is not a rational square: no transform exists at any modulus"
FAILED = {
    "S1": (NoRationalTransform, f"det 2M_sub / det 2M_sup = 25/37 {NO_TRANSFORM}"),
    "S5": (CoverIncomplete, "classes miss attainable residues (84,) mod 144"),
    "S9": (CoverIncomplete, "classes miss attainable residues (2, 6, 14, 26, 30) mod 36"),
    "S12": (NoRationalTransform, f"det 2M_sub / det 2M_sup = 4/7 {NO_TRANSFORM}"),
}


@pytest.mark.parametrize("sid", sorted(SEARCHED))
def test_search_cover_classes_pinned(sid):
    f, g = table_set(sid, 2)[:2]
    g_in_f, f_in_g = SEARCHED[sid]
    assert [(p.cls.d, p.cls.a) for p in search_cover(f, g).classes] == g_in_f
    assert [(p.cls.d, p.cls.a) for p in search_cover(g, f).classes] == f_in_g


@pytest.mark.parametrize("sid", sorted(FAILED))
def test_search_cover_failures_pinned(sid):
    f, g = table_set(sid, 2)[:2]
    kind, message = FAILED[sid]
    with pytest.raises(ProofError) as info:
        search_cover(f, g)
    assert type(info.value) is kind
    assert str(info.value) == message


def _catalog_pairs():
    for sid in SET_IDS:
        for f, g in combinations(table_set(sid, 2), 2):
            yield sid, f, g


NON_SQUARE_PAIRS = [(sid, f, g) for sid, f, g in _catalog_pairs()
                    if not isometry._det_ratio_is_square(f, g)]


def test_non_square_catalog_pairs_are_the_expected_24():
    counts = Counter(sid for sid, _, _ in NON_SQUARE_PAIRS)
    singles = ("S1", "S2", "S3", "S10", "S11", "S12")
    assert counts == {**{sid: 1 for sid in singles}, "S13": 6, "S14": 6, "S15": 6}


def _no_search(*args):
    raise AssertionError("a search ran")


def test_non_square_pairs_fail_before_any_search(monkeypatch):
    for module, name in ((prover, "precedes"), (prover, "representations"),
                         (prover, "attainable_residues"), (isometry, "_vectors_by_norm")):
        monkeypatch.setattr(module, name, _no_search)
    for sid, f, g in NON_SQUARE_PAIRS:
        for sup, sub in ((f, g), (g, f)):
            with pytest.raises(NoRationalTransform) as info:
                search_cover(sup, sub)
            ratio = Fraction(_mat.det(doubled_gram(sub)), _mat.det(doubled_gram(sup)))
            assert (info.value.sub, info.value.sup) == (sub, sup)
            assert str(info.value) == (
                f"det 2M_sub / det 2M_sup = {ratio.numerator}/{ratio.denominator} {NO_TRANSFORM}"
            ), sid


def test_prove_pair_reports_the_rational_obstruction(monkeypatch):
    # S12a, S12b: the subform test and the f <= g search both end at once
    f, g = table_set("S12", 2)
    monkeypatch.setattr(isometry, "_vectors_by_norm", _no_search)
    with pytest.raises(NoRationalTransform) as info:
        prove_pair(f, g)
    assert str(info.value) == f"det 2M_sub / det 2M_sup = 7/4 {NO_TRANSFORM}"


def test_search_cover_scans_attainable_residues_once(s6, monkeypatch):
    f, g = s6
    calls = []

    def counted(form, modulus):
        calls.append(modulus)
        return attainable_residues(form, modulus)

    monkeypatch.setattr(prover, "attainable_residues", counted)
    search_cover(f, g)
    assert calls == [144]


def test_prove_direction_refuses_moduli_the_checker_rejects(s4, monkeypatch):
    f, g = s4
    with pytest.raises(ValueError, match="lcm of class moduli 192 exceeds 144"):
        prove_pair(f, g, classes_g_in_f=[(4, 0), (12, 2), (12, 6), (64, 0)])

    def no_search(*args):
        raise AssertionError("a class was searched")

    monkeypatch.setattr(prover, "precedes", no_search)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="1000 exceeds 144"):
        prove_direction(f, g, [(1000, 0), (1, 0)])
    assert time.perf_counter() - t0 < 1.0


def test_search_cover_reports_failure_when_moduli_exhausted(s4, monkeypatch):
    f, g = s4
    monkeypatch.setattr(prover, "AUTO_MODULI", (4,))
    with pytest.raises(CoverIncomplete):
        search_cover(f, g)


def test_prove_pair_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        prove_pair(QuadForm(1, 1, 1, 0, 0, 3), QuadForm(1, 1, 1, 0, 0, 0))


def test_search_cover_rejects_indefinite():
    # det 2M = -10 for the first form: the determinant test must not see it
    indefinite, f = QuadForm(1, 1, 1, 0, 0, 3), QuadForm(1, 1, 1, 0, 0, 0)
    for pair in ((indefinite, f), (f, indefinite)):
        with pytest.raises(NotPositiveDefinite):
            search_cover(*pair)


def test_post_proof_mismatch_raises_mismatch_at(s4, monkeypatch):
    f, g = s4
    real = prover.represented_mask

    def flipped_for_g(form, bound):
        mask = real(form, bound).copy()
        mask[7] ^= form == g
        return mask

    monkeypatch.setattr(prover, "represented_mask", flipped_for_g)
    # prove_pair compares packed keys first: derive them from the flipped masks
    monkeypatch.setattr(prover, "_value_bits", lambda form, bound: (
        1, np.packbits(prover.represented_mask(form, bound), bitorder="little")))
    with pytest.raises(MismatchAt) as info:
        prove_pair(f, g, empirical_bound=100)
    assert info.value.n == 7


def test_verify_pairwise_mismatch():
    f = QuadForm(1, 1, 1, 0, 0, 0)
    g = QuadForm(1, 1, 2, 0, 0, 0)
    with pytest.raises(MismatchAt) as info:
        verify_pairwise([f, g], 50)
    assert info.value.n == 7  # 7 = 1 + 4 + 2 but not a sum of three squares


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_pairwise_mismatch_after_an_agreeing_pair(jobs):
    # forms 0 and 1 represent the same integers, form 2 does not
    forms = (named_form("S4f"), named_form("S4g"), QuadForm(1, 1, 1, 0, 0, 0))
    with pytest.raises(MismatchAt) as info:
        verify_pairwise(forms, 200, jobs)
    assert (info.value.n, info.value.f, info.value.g) == (1, forms[0], forms[2])


def test_verify_pairwise_ignores_values_past_the_bound():
    # these agree up to 10^5 and first differ at 100,003, which lies in the
    # last byte of their bitsets at 10^5 (bits 100,000-100,007): the shifted
    # ORs set bits there, and a key or count that kept them would differ
    f, g = QuadForm(1, 1, 10**5, 0, 0, 0), QuadForm(1, 1, 10**5 + 1, 0, 0, 0)
    with pytest.raises(MismatchAt) as info:
        verify_pairwise([f, g], 10**5 + 7)
    assert info.value.n == 100_003
    (kf, bf), (kg, bg) = (prover._value_bits(h, 10**5) for h in (f, g))
    assert kf == kg == 1 and len(bf) == 10**5 // 8 + 1 and np.array_equal(bf, bg)
    count = int(represented_mask(f, 10**5).sum())
    assert verify_pairwise([f, g], 10**5) == verify_pairwise([g, f], 10**5) == (count, ())


def test_verify_pairwise_compares_masks_across_contents():
    # the keys of 2(x^2 + y^2 + z^2) and 3(x^2 + y^2 + z^2) differ in their
    # content, but up to 1 both forms represent 0 alone; at 3 their
    # bitsets are equal (x^2 + y^2 + z^2 up to 1), their values are not
    pair = (QuadForm(2, 2, 2, 0, 0, 0), QuadForm(3, 3, 3, 0, 0, 0))
    assert verify_pairwise(pair, 1) == (1, ())
    for bound in (2, 3):
        with pytest.raises(MismatchAt) as info:
            verify_pairwise(pair, bound)
        assert info.value.n == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_pairwise_refuses_no_forms(jobs):
    with pytest.raises(ValueError, match="no forms"):
        verify_pairwise((), 50, jobs)


def test_verify_table_smoke():
    report = verify_table("S13", bound=20000)
    assert len(report.forms) == 4
    assert report.all_non_isometric
    assert report.value_count > 0
    report2 = verify_table("S2", bound=20000)
    assert len(report2.forms) == 2
    trivial = verify_table("S1", bound=0)  # only the value 0
    assert trivial.value_count == 1
    with pytest.raises(KeyError):
        verify_table("S99")


def test_kaplansky_family_pair_construction():
    p, q = kaplansky_family_pair("iii", 1, 1)
    assert p == QuadForm(1, 1, 1, 1, 0, 0)
    assert q == QuadForm(1, 1, 3, 0, 0, 0)
    p, q = kaplansky_family_pair("iv", 3, 1)
    assert p == QuadForm(3, 3, 3, 1, 1, 1)
    assert q == QuadForm(3, 5, 7, 0, 2, 0)
    with pytest.raises(NotPositiveDefinite):
        kaplansky_family_pair("iii", 1, -1)
    with pytest.raises(ValueError):
        kaplansky_family_pair("v", 1, 1)


def test_kaplansky_family_sets_agree_small():
    from ternrep import represented_set

    for kind, a, b in (("iii", 1, 1), ("iv", 3, 1)):
        p, q = kaplansky_family_pair(kind, a, b)
        assert np.array_equal(represented_set(p, 2000), represented_set(q, 2000))


@pytest.mark.parametrize("sid", ["S4", "S6", "S7", "S8"])
def test_emit_rebuilds_no_kernel_tables(sid):
    # the S8 proof touches 18 transform sets; the transforms a certificate
    # lists come from kernel tables its search built, still cached
    congruence._kernel_classes.cache_clear()
    proof = prove_pair(named_form(f"{sid}f"), named_form(f"{sid}g"), empirical_bound=100)
    before = congruence._kernel_classes.cache_info().misses
    prover.emit(proof)
    assert congruence._kernel_classes.cache_info().misses == before
