import ast
import copy
import json
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from math import gcd, lcm
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from refcheck import class_cosets, integral, refcheck
from test_congruence import positive_definite_forms
from test_prover import FAMILY_PAIRS
from ternrep import (
    QuadForm,
    ResidueClass,
    certificate,
    change_of_basis,
    congruence,
    emit,
    evaluate,
    isometry,
    kaplansky_family_pair,
    named_form,
    prove_pair,
    prover,
    search_cover,
    table_set,
)

S4_PAPER_CLASSES = [(4, 0), (12, 6), (12, 10), (12, 2)]
CERTS = Path(__file__).resolve().parent.parent / "certs"


@pytest.fixture(scope="module")
def s4_proof():
    f, g = named_form("S4f"), named_form("S4g")
    return prove_pair(f, g, classes_g_in_f=S4_PAPER_CLASSES, empirical_bound=20000)


@pytest.fixture(scope="module")
def s4_cert(s4_proof):
    return json.loads(emit(s4_proof))


@pytest.mark.parametrize("sid", ["S4", "S6", "S7", "S8"])
def test_golden_certificate(sid):
    # certs/<sid>.json holds the bytes `ternrep prove --out` writes at the
    # default bound: any change to the proof or its encoding shows as a diff
    golden = (CERTS / f"{sid}.json").read_bytes()
    assert certificate.check(golden).ok
    proof = prove_pair(named_form(f"{sid}f"), named_form(f"{sid}g"), empirical_bound=10**6)
    assert emit(proof) + b"\n" == golden


@pytest.mark.parametrize("sid", ["S4", "S6", "S7", "S8"])
def test_golden_bytes_are_canonical(sid):
    golden = (CERTS / f"{sid}.json").read_bytes()
    for blob in (golden, golden.removesuffix(b"\n"), golden.decode()):
        assert certificate.check(blob).ok
    assert certificate.check(golden + b"\n").clause == "canonical"


@pytest.mark.parametrize("edit", [
    lambda blob: b"\xef\xbb\xbf" + blob,
    lambda blob: blob.replace(b"{", b'{"version":3,', 1),
    lambda blob: blob.replace(b",", b", ", 1),
], ids=["utf8_bom", "duplicated_version", "one_space"])
def test_second_byte_forms_rejected(edit):
    # each parses to the same certificate as certs/S4.json
    golden = (CERTS / "S4.json").read_bytes()
    blob = edit(golden)
    assert json.loads(blob) == json.loads(golden)
    assert certificate.check(blob) == certificate.Verdict(
        False, "canonical", "not the bytes encode() writes for this certificate")
    if not blob.startswith(b"\xef"):
        assert certificate.check(blob.decode()).clause == "canonical"


def test_prove_emit_and_check_leave_numpy_ma_unimported():
    # np.unique without return_index/inverse/counts imports numpy.ma on its
    # first call, 13-17 ms inside the first emit() or check() of a process;
    # a fresh interpreter shows whether any of them still does
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from ternrep import certificate, emit, named_form, prove_pair
        certs = Path(sys.argv[1])
        proof = prove_pair(named_form("S4f"), named_form("S4g"), empirical_bound=10**6)
        assert emit(proof) + b"\\n" == (certs / "S4.json").read_bytes()
        blobs = [path.read_bytes() for path in sorted(certs.glob("*.json"))]
        assert len(blobs) >= 4 and all(certificate.check(blob).ok for blob in blobs)
        print("numpy.ma" in sys.modules)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script, str(CERTS)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


COVER_SOURCES = ["S4", "S6", "S7", "S8"] + FAMILY_PAIRS


def _pair(source):
    if isinstance(source, str):
        return named_form(f"{source}f"), named_form(f"{source}g")
    return kaplansky_family_pair(*source)


@st.composite
def unimodular_bases(draw):
    """A signed permutation matrix times one +-1 shear, the basis changes of
    the benchmark's seeded inputs."""
    perm = draw(st.permutations(range(3)))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * 3))
    i, j = draw(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]))
    k = draw(st.sampled_from((-1, 1)))
    U = [[signs[row] * (perm[row] == col) for col in range(3)] for row in range(3)]
    for row in U:
        row[j] += k * row[i]
    return U


def _integral_table(report):
    """table[i, t]: transform t of the set makes coset i integral, by direct products."""
    d = report.cls.d
    columns = [~((report.cosets @ T.T) % d).any(axis=1) for T in report.transforms.matrices]
    return np.stack(columns, axis=1) if columns else np.zeros((len(report.cosets), 0), dtype=bool)


def _naive_greedy(table):
    picks, uncovered = [], table.any(axis=1)
    while uncovered.any():
        t = int(table[uncovered].sum(axis=0).argmax())
        picks.append(t)
        uncovered &= ~table[:, t]
    return picks


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(COVER_SOURCES), unimodular_bases(), unimodular_bases())
def test_emitted_transform_lists_are_greedy_covers(source, U, V):
    f, g = _pair(source)
    proof = prove_pair(change_of_basis(f, U), change_of_basis(g, V), empirical_bound=100)
    cert = json.loads(emit(proof))
    for tag in ("f_in_g", "g_in_f"):
        if cert[tag]["kind"] != "cover":
            continue
        direction = getattr(proof, tag)
        classes = sorted(direction.classes, key=lambda p: (p.cls.d, p.cls.a))
        for class_proof, rec in zip(classes, cert[tag]["classes"], strict=True):
            report, d = class_proof.report, class_proof.cls.d
            table = _integral_table(report)
            # the witness stays the first integral transform of the set
            assert report.witness.tolist() == np.where(table.any(axis=1), table.argmax(axis=1), -1).tolist()
            cover = report.cover.tolist()
            assert rec["transforms"] == report.transforms.matrices[cover].tolist()
            assert cover == _naive_greedy(table)
            covered = np.zeros(len(table), dtype=bool)
            for t in cover:
                assert (table[:, t] & ~covered).any(), (source, class_proof.cls, t)
                covered |= table[:, t]
            assert np.array_equal(covered, report.witness >= 0)
            assert len(cover) <= len(set(report.witness[report.witness >= 0].tolist()))
            # the checker's own scan leaves exactly the prover's bad cosets
            parts = certificate._class_parts(direction.sub, d, class_proof.cls.a, {})
            bad = ~certificate._integral(parts, rec["transforms"])
            assert sorted(certificate._cosets(parts, d, bad).tolist()) == [list(v) for v in report.bad]
    assert certificate.check(cert).ok


@pytest.mark.parametrize("kind,a,b", FAMILY_PAIRS)
def test_family_pair_certificates_from_explicit_class_lists(kind, a, b):
    # the searched classes of each direction, given as lists: the subform
    # direction then gets a cover record too
    p, q = kaplansky_family_pair(kind, a, b)
    classes_g_in_f = [c.cls for c in search_cover(p, q).classes]
    classes_f_in_g = [c.cls for c in search_cover(q, p).classes]
    proof = prove_pair(p, q, classes_g_in_f=classes_g_in_f, classes_f_in_g=classes_f_in_g,
                       empirical_bound=1000)
    cert = json.loads(emit(proof))
    assert cert["f_in_g"]["kind"] == cert["g_in_f"]["kind"] == "cover"
    assert certificate.check(cert).ok


def matrix_paths(node, path=()):
    """All (container, key) locations of 3x3 integer matrices in a cert."""
    found = []
    if isinstance(node, dict):
        for key, val in node.items():
            found.extend(matrix_paths(val, path + (key,)))
    elif isinstance(node, list):
        if (
            len(node) == 3
            and all(isinstance(r, list) and len(r) == 3 for r in node)
            and all(isinstance(x, int) for r in node for x in r)
        ):
            found.append(path)
        else:
            for i, val in enumerate(node):
                found.extend(matrix_paths(val, path + (i,)))
    return found


def get_at(cert, path):
    node = cert
    for key in path:
        node = node[key]
    return node


def test_round_trip_accepts(s4_proof):
    blob = emit(s4_proof)
    assert certificate.check(blob)
    assert certificate.check(blob.decode())
    assert certificate.check(json.loads(blob))


def test_round_trip_trivial_pair():
    f = named_form("S5a")
    proof = prove_pair(f, f, empirical_bound=500)
    assert certificate.check(emit(proof))


def test_round_trip_double_cover(s8):
    f, g = s8
    proof = prove_pair(f, g, empirical_bound=20000)
    blob = emit(proof)
    cert = json.loads(blob)
    assert cert["f_in_g"]["kind"] == "cover" and cert["g_in_f"]["kind"] == "cover"
    assert certificate.check(blob)


def test_emission_is_deterministic(s4_proof):
    assert emit(s4_proof) == emit(s4_proof)
    # a second proof built from cold caches emits the same bytes
    for cached in (isometry.find_transforms, congruence._value_grid, congruence._kernel_classes):
        cached.cache_clear()
    again = prove_pair(named_form("S4f"), named_form("S4g"), classes_g_in_f=S4_PAPER_CLASSES,
                       empirical_bound=20000)
    assert emit(again) == emit(s4_proof)
    blob = emit(s4_proof)
    assert b"e-" not in blob and b"." not in blob.replace(b'"', b"")  # integers only


def test_escape_matrix_tamper_rejected(s4_cert):
    cert = copy.deepcopy(s4_cert)
    for rec in cert["g_in_f"]["classes"]:
        if rec["escape"] is not None:
            rec["escape"]["matrix"][2][2] += 1
            break
    verdict = certificate.check(cert)
    assert not verdict.ok
    assert "escape" in verdict.clause and "identity" in verdict.clause


def test_dropped_class_rejected(s4_cert):
    cert = copy.deepcopy(s4_cert)
    cert["g_in_f"]["classes"] = [
        rec for rec in cert["g_in_f"]["classes"] if (rec["d"], rec["a"]) != (12, 2)
    ]
    verdict = certificate.check(cert)
    assert not verdict.ok and "cover" in verdict.clause


def test_subform_tamper_rejected(s4_cert):
    cert = copy.deepcopy(s4_cert)
    cert["f_in_g"]["matrix"][0][1] += 2
    verdict = certificate.check(cert)
    assert not verdict.ok and "subform" in verdict.clause


def test_missing_witness_rejected(s4_cert):
    # without its transforms, a class with cosets and no escape record has
    # bad cosets and nothing to handle them ((12,10) has no cosets at all)
    emptied = 0
    for i, rec in enumerate(s4_cert["g_in_f"]["classes"]):
        if rec["escape"] is not None or not rec["transforms"]:
            continue
        emptied += 1
        cert = copy.deepcopy(s4_cert)
        cert["g_in_f"]["classes"][i]["transforms"] = []
        verdict = certificate.check(cert)
        assert not verdict.ok
        assert verdict.clause == f"g_in_f.escape({rec['d']},{rec['a']}).missing"
    assert emptied == 2
    cert = copy.deepcopy(s4_cert)
    stuck = next(rec for rec in cert["g_in_f"]["classes"] if (rec["d"], rec["a"]) == (12, 2))
    stuck["escape"] = None
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause == "g_in_f.escape(12,2).missing"


def test_version_enforced(s4_cert):
    cert = copy.deepcopy(s4_cert)
    cert["version"] = 99
    assert not certificate.check(cert).ok
    for lookalike in (True, 1.0, "1"):
        cert["version"] = lookalike
        assert certificate.check(cert).clause == "version"
    del cert["version"]
    assert not certificate.check(cert).ok


def test_garbage_rejected():
    assert not certificate.check(b"{not json").ok
    assert not certificate.check({"version": 1}).ok
    assert not certificate.check([1, 2, 3]).ok


@pytest.mark.parametrize("blob", [b"\xff", "[" * 100000 + "]" * 100000],
                         ids=["bad_utf8", "deep_nesting"])
def test_undecodable_input_rejected(blob):
    verdict = certificate.check(blob)
    assert not verdict.ok and verdict.clause == "schema"


def test_single_integer_perturbations_rejected(s4_cert):
    rng = random.Random(97)
    paths = matrix_paths(s4_cert)
    assert paths, "certificate should contain matrices"
    for _ in range(40):
        cert = copy.deepcopy(s4_cert)
        path = rng.choice(paths)
        M = get_at(cert, path)
        i, j = rng.randrange(3), rng.randrange(3)
        delta = rng.choice([-3, -2, -1, 1, 2, 3])
        M[i][j] += delta
        verdict = certificate.check(cert)
        assert not verdict.ok, f"perturbation at {path} [{i}][{j}] += {delta} was accepted"


@pytest.fixture(scope="module")
def catalog_certs():
    return {
        sid: emit(prove_pair(named_form(f"{sid}f"), named_form(f"{sid}g"),
                                         empirical_bound=1000))
        for sid in ("S4", "S6", "S7", "S8")
    }


def test_catalog_certificates_within_limits(catalog_certs):
    for sid, blob in catalog_certs.items():
        assert certificate.check(blob), sid
        cert = json.loads(blob)
        for tag in ("f_in_g", "g_in_f"):
            moduli = [rec["d"] for rec in cert[tag].get("classes", [])]
            assert lcm(1, *moduli) <= certificate.MAX_MODULUS
    # the checker's limit is a literal: the search's moduli must stay within it
    assert lcm(*prover.AUTO_MODULI) <= certificate.MAX_MODULUS


@pytest.mark.parametrize("moduli", [(16, 45), (10**30,)])
def test_oversized_cover_modulus_rejected_before_scan(s4_cert, moduli):
    cert = copy.deepcopy(s4_cert)
    for rec, d in zip(cert["g_in_f"]["classes"], moduli):
        rec["d"] = d
    t0 = time.perf_counter()
    verdict = certificate.check(cert)
    assert time.perf_counter() - t0 < 1.0
    assert not verdict.ok and verdict.clause == "g_in_f.limits"


def _class_with_escape(cert):
    return next(rec for rec in cert["g_in_f"]["classes"] if rec["escape"])


INTEGER_FIELDS = {
    "empirical_bound": lambda c: (c, "empirical_bound"),
    "form_coefficient": lambda c: (c["f"], 0),
    "class_d": lambda c: (c["g_in_f"]["classes"][0], "d"),
    "class_a": lambda c: (c["g_in_f"]["classes"][0], "a"),
    "transform_entry": lambda c: (c["g_in_f"]["classes"][0]["transforms"][0][0], 0),
    "transform_last_entry": lambda c: (_class_with_escape(c)["transforms"][-1][2], 2),
    "escape_matrix_entry": lambda c: (_class_with_escape(c)["escape"]["matrix"][1], 0),
    "escape_witness_entry": lambda c: (_class_with_escape(c)["escape"]["witness"], 2),
}


@pytest.mark.parametrize("retype", [bool, str, float], ids=["bool", "str", "float"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_non_integer_types_rejected(s4_cert, field, retype):
    cert = copy.deepcopy(s4_cert)
    node, key = INTEGER_FIELDS[field](cert)
    value = node[key]
    node[key] = True if retype is bool else retype(value)
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause.endswith("schema"), (field, verdict)


@pytest.mark.parametrize("d, a, detail", [
    (0, 0, "modulus d must be a positive integer"),
    (-4, 0, "modulus d must be a positive integer"),
    (12, 12, "residue must satisfy 0 <= a < d, got (12, 12)"),
    (12, -1, "residue must satisfy 0 <= a < d, got (12, -1)"),
])
def test_out_of_range_class_rejected(s4_cert, d, a, detail):
    cert = copy.deepcopy(s4_cert)
    cert["g_in_f"]["classes"][0].update(d=d, a=a)
    assert certificate.check(cert) == certificate.Verdict(False, "g_in_f.schema", detail)


@pytest.mark.parametrize("path, junk", [
    (("g_in_f", "classes", 1, "escape"), 5),
    (("g_in_f", "classes", 0, "transforms", 0), {}),
    (("g_in_f", "classes", 0, "transforms", 0), []),
    (("g_in_f", "classes", 0, "transforms"), 5),
    (("g_in_f", "classes", 0, "transforms"), {}),
    (("g_in_f", "classes", 1, "escape", "witness"), {}),
])
def test_malformed_records_rejected(s4_cert, path, junk):
    cert = copy.deepcopy(s4_cert)
    get_at(cert, path[:-1])[path[-1]] = junk
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause.endswith("schema")


@pytest.mark.parametrize("path, clause, kind", [
    ((), "schema", "root"),
    (("f_in_g",), "f_in_g.schema", "subform"),
    (("g_in_f",), "g_in_f.schema", "cover"),
    (("g_in_f", "classes", 0), "g_in_f.class(4,0).schema", "class"),
    (("g_in_f", "classes", 1, "escape"), "g_in_f.escape(12,2).schema", "escape"),
], ids=["root", "subform_direction", "cover_direction", "class", "escape"])
def test_unknown_keys_rejected(path, clause, kind):
    # the golden certificate with one extra key, in canonical bytes
    cert = json.loads((CERTS / "S4.json").read_bytes())
    get_at(cert, path)["zzz"] = 0
    verdict = certificate.check(certificate.encode(cert))
    assert verdict == certificate.Verdict(False, clause, f"unknown keys in {kind} record: ['zzz']")


def test_checker_runs_no_transform_search(s4_proof, monkeypatch):
    blob = emit(s4_proof)

    def boom(*args, **kwargs):
        raise AssertionError("checker must not search for transforms or reuse the prover's scans")

    monkeypatch.setattr(isometry, "find_transforms", boom)
    monkeypatch.setattr(congruence, "_residue_array", boom)
    monkeypatch.setattr(congruence, "precedes", boom)
    assert certificate.check(blob)


# the checker's trusted code: every module it imports, and what they import
TRUSTED_IMPORTS = {
    "certificate": {"__future__", "json", "dataclasses", "math", "numpy", "ternrep._mat", "ternrep.forms"},
    "forms": {"__future__", "dataclasses", "operator", "typing", "ternrep._mat"},
    "_mat": {"math"},
}


def _imports(path):
    """The modules a source file of ternrep imports, relative imports resolved."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, ast.dump(node)
            if not node.level:
                found.add(node.module)
            elif node.module:
                found.add(f"ternrep.{node.module}")
            else:  # from . import name: name is a module of the package
                found.update(f"ternrep.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(TRUSTED_IMPORTS))
def test_checker_imports_only_trusted_code(module):
    path = Path(certificate.__file__).with_name(f"{module}.py")
    assert _imports(path) == TRUSTED_IMPORTS[module]


@settings(max_examples=30, deadline=None)
@given(positive_definite_forms, st.integers(1, 48))
@example(QuadForm(1, 1, 1, 0, 0, 0), 36)
@example(QuadForm(8, 14, 14, 10, 4, 4), 48)
def test_checker_coset_scan_matches_naive_scan(form, d):
    # the checker builds each class from its prime-power parts; the oracle
    # scans all d^3 vectors directly
    naive = oracle.class_cosets(form, d)
    grids = {}
    for a in range(d):
        parts = certificate._class_parts(form, d, a, grids)
        cosets = certificate._cosets(parts, d, np.ones([len(U) for _, U in parts], dtype=bool))
        assert sorted(cosets.tolist()) == naive.get(a, [])


def _direct_class(form, d, a):
    """The cosets v in [0, d)^3 with form(v) = a (mod d), lexicographic, by a
    scan of (Z/d)^3 one x at a time: refcheck.class_cosets in numpy, since
    the plain-int scan takes about 0.3 s a call at d = 139."""
    A, B, C, R, S, T = form.coefficients
    y, z = (w.ravel() for w in np.meshgrid(np.arange(d), np.arange(d), indexing="ij"))
    found = []
    for x in range(d):
        keep = (A * x * x + B * y * y + C * z * z + R * y * z + S * x * z + T * x * y) % d == a
        found.append(np.stack([np.full(np.count_nonzero(keep), x), y[keep], z[keep]], axis=1))
    return np.concatenate(found)


@st.composite
def matrices_mod(draw, d):
    """A 3x3 matrix m (s I + N) + d B with m | d, 1 <= s <= 3, |N| <= 3 and
    entries up to about 2^62: mod d it is m (s I + N), so it makes integral
    the cosets v with (s I + N) v = 0 (mod d / m).  m is the lcm of a divisor
    of d and a product of some of its prime powers, so that a matrix often
    makes whole parts integral and not others."""
    divisors = [m for m in range(1, d + 1) if d % m == 0]
    unitary = [m for m in divisors[:-1] if gcd(m, d // m) == 1]  # products of prime powers of d
    m = lcm(draw(st.sampled_from(divisors)), draw(st.sampled_from(unitary or [1])))
    s, big = draw(st.integers(1, 3)), 2**62 // d
    return [[m * (s * (i == j) + draw(st.integers(-3, 3))) + d * draw(st.integers(-big, big))
             for j in range(3)] for i in range(3)]


@st.composite
def integrality_cases(draw):
    """(form, d, a, matrices) with the class (d, a) holding the coset of a drawn vector."""
    form = draw(positive_definite_forms)
    d = draw(st.sampled_from([48, 60, 90, 120, 16, 9, 139, 1]))
    a = evaluate(form, draw(st.tuples(*[st.integers(0, d - 1)] * 3))) % d
    return form, d, a, draw(st.lists(matrices_mod(d), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(integrality_cases(), st.sampled_from([1, 2, 2**10, 2**13, certificate._STEP_CELLS]))
@example((QuadForm(1, 1, 1, 0, 0, 0), 1, 0, []), 1)  # d = 1: the one cell stays unset
# a residue x^2 + y^2 + z^2 does not attain: a class without cosets
@example((QuadForm(1, 1, 1, 0, 0, 0), 16, 7, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]), 1)
def test_batched_integrality_matches_a_direct_scan(case, step):
    # _integral ORs over a whole list in steps of cells x matrices: step
    # constants 1 and 2 give one matrix per step, 2^10, 2^13 and the default
    # several at most moduli, so lists cross step edges.  The reference
    # tests each matrix on each coset mod d.
    form, d, a, Ms = case
    V = _direct_class(form, d, a)
    expected = np.zeros(len(V), dtype=bool)
    for M in Ms:
        expected |= ~((V @ np.array([[x % d for x in row] for row in M]).T) % d).any(axis=1)
    parts = certificate._class_parts(form, d, a, {})
    with patch.object(certificate, "_STEP_CELLS", step):
        mask = certificate._integral(parts, Ms)
    assert mask.shape == tuple(len(U) for _, U in parts) and mask.size == len(V)
    assert sorted(certificate._cosets(parts, d, mask).tolist()) == V[expected].tolist()


def test_checker_value_grid_is_exact_at_the_largest_modulus():
    # every coefficient is -1 mod 144, so each term takes its largest residue
    L = 144
    coeffs = [L * 10**20 - 1] * 6
    v = np.arange(L, dtype=np.int64)
    x, y, z = np.meshgrid(v, v, v, indexing="ij")
    a, b, c, r, s, t = (k % L for k in coeffs)
    expected = (a * x * x + b * y * y + c * z * z + r * y * z + s * x * z + t * x * y) % L
    assert np.array_equal(certificate._values_mod(QuadForm(*coeffs), L), expected)


def test_checker_value_grid_memory_at_the_largest_modulus():
    # an int64 grid with its temporaries peaked at ~46 MB; numpy reports its
    # buffers to tracemalloc
    tracemalloc.start()
    try:
        certificate._values_mod(named_form("S4f"), 144)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _first_non_integral_escape():
    """The first scaled automorphism of S4g at modulus 12 that leaves a bad
    coset of the class (12, 2) non-integral."""
    f, g = named_form("S4f"), named_form("S4g")
    report = congruence.precedes(f, g, ResidueClass(12, 2))
    return next(E for E in isometry.scaled_automorphisms(g, 12).matrices
                if any(congruence.transport(u, E, 12) is None for u in report.bad))


ESCAPE_EDITS = {
    # f(1, 1, 0) = 18, not the value 8 at the axis (1, 0, 0)
    "base_witness": lambda: {"witness": [1, 1, 0]},
    "integrality": lambda: {"matrix": _first_non_integral_escape().tolist()},
    # 12 I makes every coset integral, but (1/12) 12 I = I has order 1
    "finite_order": lambda: {"matrix": [[12, 0, 0], [0, 12, 0], [0, 0, 12]]},
}


@pytest.mark.parametrize("clause", sorted(ESCAPE_EDITS))
def test_wrong_escape_rejected(s4_cert, clause):
    cert = copy.deepcopy(s4_cert)
    _class_with_escape(cert)["escape"].update(ESCAPE_EDITS[clause]())
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause == f"g_in_f.escape(12,2).{clause}"


@pytest.mark.parametrize("wrong_axis", [(0, 1, 0), (1, -1, 2)])
def test_wrong_axis_from_the_shared_matrix_code_rejected(s4_cert, monkeypatch, wrong_axis):
    # the S4 escape matrix has axis (1, 0, 0); another primitive vector from
    # the shared _mat.axis must fail the eigenvector test, not base_witness
    assert certificate.check(s4_cert).ok
    monkeypatch.setattr(certificate._mat, "axis", lambda E, d: wrong_axis)
    verdict = certificate.check(s4_cert)
    assert not verdict.ok and verdict.clause == "g_in_f.escape(12,2).axis"


def test_v2_escape_records_rejected(s4_cert):
    cert = copy.deepcopy(s4_cert)
    cert["version"] = 2
    assert certificate.check(cert).clause == "version"
    cert = copy.deepcopy(s4_cert)
    escape = _class_with_escape(cert)["escape"]
    escape["eigenvectors"] = [{"vector": [1, 0, 0], "eigenvalue": -12, "power": 1, "base": 8,
                               "witness": escape.pop("witness")}]
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause == "g_in_f.escape(12,2).schema"


@pytest.fixture(scope="module")
def small_certs(s4_cert, s7):
    return {"S4": s4_cert, "S7": json.loads(emit(prove_pair(*s7, empirical_bound=1000)))}


def node_paths(node, path=()):
    """Paths of every node of a parsed certificate, the root excluded."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        found.append(path + (key,))
        found.extend(node_paths(val, path + (key,)))
    return found


HUGE = 10**40
INT_MUTATIONS = {
    "bool": lambda v: True, "str": str, "float": float, "none": lambda v: None,
    "huge": lambda v: HUGE, "minus_huge": lambda v: -HUGE,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["S4", "S7"]), st.data())
def test_single_node_mutations_give_a_verdict(small_certs, sid, data):
    cert = copy.deepcopy(small_certs[sid])
    path = data.draw(st.sampled_from(node_paths(cert)), label="path")
    parent, key = get_at(cert, path[:-1]), path[-1]
    node = parent[key]
    kinds = sorted(INT_MUTATIONS) if type(node) is int else []
    kinds.append("delete" if isinstance(parent, dict) else "truncate")
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "delete":
        del parent[key]
    elif kind == "truncate":
        del parent[key:]  # the list keeps its first `key` items
    else:
        parent[key] = INT_MUTATIONS[kind](node)
    verdict, seconds, peak = _checked_with_peak(cert)
    # over all 2,963 mutations this test can draw, the largest peak is 89 KB
    # (S4 with a transform list truncated to none)
    assert seconds < 1.0 and peak < 256 * 2**10
    assert isinstance(verdict, certificate.Verdict)
    assert not verdict.ok or refcheck(cert), (sid, path, kind)
    # every mutation changes the type or the value of what it touches
    changed = path[:-1] if kind == "truncate" else path
    if any(changed[:len(m)] == m for m in matrix_paths(small_certs[sid])):
        assert not verdict.ok, (sid, path, kind, verdict)


# the differential backstop: tests/refcheck.py re-derives the cover half of
# every claim with plain ints and direct (Z/d)^3 scans, so each certificate
# the factored checker accepts must pass it too


@pytest.mark.parametrize("sid", ["S4", "S6", "S7", "S8"])
def test_golden_certificates_pass_the_reference(sid):
    golden = (CERTS / f"{sid}.json").read_bytes()
    assert certificate.check(golden).ok and refcheck(json.loads(golden))


def _list_mutations(cert):
    """Copies of cert with one class repeated, one transform repeated, or one
    transform list truncated.  check accepts the padded ones today."""
    out = []
    for tag in ("f_in_g", "g_in_f"):
        if cert[tag]["kind"] != "cover":
            continue
        for i, rec in enumerate(cert[tag]["classes"]):
            n = len(rec["transforms"])
            edits = [lambda cl, i=i: cl.append(copy.deepcopy(cl[i]))]
            edits += [lambda cl, i=i: cl[i]["transforms"].append(cl[i]["transforms"][-1])] * (n > 0)
            edits += [lambda cl, i=i, k=k: cl[i].update(transforms=cl[i]["transforms"][:k])
                      for k in range(n)]
            for edit in edits:
                mutated = copy.deepcopy(cert)
                edit(mutated[tag]["classes"])
                out.append(mutated)
    return out


@pytest.mark.parametrize("sid", ["S4", "S7"])
def test_list_mutations_accepted_only_if_the_reference_accepts(small_certs, sid):
    accepted = 0
    for cert in _list_mutations(small_certs[sid]):
        verdict = certificate.check(cert)
        accepted += verdict.ok
        assert not verdict.ok or refcheck(cert), verdict
    assert accepted >= 2  # today check accepts the padded copies


S5_CLASSES = [(4, 2), (8, 0), (36, 0), (48, 4), (48, 12), (48, 28), (144, 84)]


@pytest.fixture(scope="module")
def s5_cert():
    f, g = table_set("S5", 2)[:2]
    return json.loads(emit(prove_pair(f, g, classes_g_in_f=S5_CLASSES, empirical_bound=1000)))


def _checked_with_peak(cert):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        verdict = certificate.check(cert)
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return verdict, seconds, peak


def _class_144(cert):
    return next(rec for rec in cert["g_in_f"]["classes"] if rec["d"] == 144)


def test_checker_at_modulus_144(s5_cert):
    # 144 = 16 * 9: the checker scans 16^3 and 9^3 grids, never the 144^3 one
    # (14.2 MB tracemalloc peak with a direct scan)
    verdict, _, peak = _checked_with_peak(s5_cert)
    assert verdict.ok and peak < 2**20
    assert refcheck(s5_cert)
    cert = copy.deepcopy(s5_cert)
    _class_144(cert)["transforms"][0][1][2] += 1
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause == "g_in_f.class(144,84).transform_identity"
    # the reference costs ~1 s at 144, so it runs only on what check accepts
    for k in range(len(_class_144(s5_cert)["transforms"])):
        cert = copy.deepcopy(s5_cert)
        del _class_144(cert)["transforms"][k:]
        verdict = certificate.check(cert)
        assert not verdict.ok or refcheck(cert), verdict


def test_stuck_coset_is_the_first_of_a_direct_scan(s5_cert):
    # the integrality detail rebuilds the stuck coset mod 144 from its parts
    # mod 16 and mod 9; a direct scan of (Z/144)^3 names the same one
    g = table_set("S5", 2)[1]
    cert = copy.deepcopy(s5_cert)
    rec = _class_144(cert)
    del rec["transforms"][1:]
    bad = [v for v in class_cosets(g.coefficients, 144, 84) if not integral(rec["transforms"][0], v, 144)]
    E = next(E for E in isometry.scaled_automorphisms(g, 144).matrices.tolist()
             if not all(integral(E, v, 144) for v in bad))
    rec["escape"] = {"matrix": E, "witness": [0, 0, 0]}
    verdict = certificate.check(cert)
    assert verdict.clause == "g_in_f.escape(144,84).integrality"
    assert verdict.detail == f"coset {next(v for v in bad if not integral(E, v, 144))}"


def _prime_modulus_cert():
    """A self-pair certificate of x^2 + y^2 + z^2 with the class (139, 0), a
    prime modulus near 144 and so one part as large as the class: 16
    transforms of rank one mod 139, then -139 I, which makes every coset
    integral."""
    form = QuadForm(1, 1, 1, 0, 0, 0)
    cert = json.loads(emit(prove_pair(form, form, classes_g_in_f=[(1, 0), (139, 0)],
                                      empirical_bound=100)))
    rec = cert["g_in_f"]["classes"][1]
    rank_one = [T for T in isometry.find_transforms(form, form, 139).matrices.tolist()
                if any(x % 139 for row in T for x in row)]
    rec["transforms"] = rank_one[:16] + rec["transforms"]
    return cert


def test_checker_at_a_prime_modulus():
    cert = _prime_modulus_cert()
    verdict, seconds, peak = _checked_with_peak(cert)
    # the 139^3 value grid is made in uint16, then kept as uint8
    assert verdict.ok and seconds < 1.0 and peak < 10 * 2**20
    assert refcheck(cert)
    # a long list costs steps of the class's products, not memory
    many = copy.deepcopy(cert)
    many["g_in_f"]["classes"][1]["transforms"] = [[[-139, 0, 0], [0, -139, 0], [0, 0, -139]]] * 200
    verdict, seconds, peak = _checked_with_peak(many)
    assert verdict.ok and seconds < 1.0 and peak < 10 * 2**20
    cert["g_in_f"]["classes"][1]["transforms"].pop()  # 139 I
    verdict, seconds, _ = _checked_with_peak(cert)
    assert seconds < 1.0
    assert verdict.clause == "g_in_f.escape(139,0).missing" and not refcheck(cert)
