import copy
import json
import random
import time
from math import lcm

import pytest

from ternrep import certificate, isometry, named_form, prove_pair

S4_PAPER_CLASSES = [(4, 0), (12, 6), (12, 10), (12, 2)]


@pytest.fixture(scope="module")
def s4_proof():
    f, g = named_form("S4f"), named_form("S4g")
    return prove_pair(f, g, classes_g_in_f=S4_PAPER_CLASSES, empirical_bound=20000)


@pytest.fixture(scope="module")
def s4_cert(s4_proof):
    return json.loads(certificate.emit(s4_proof))


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
    blob = certificate.emit(s4_proof)
    assert certificate.check(blob)
    assert certificate.check(blob.decode())
    assert certificate.check(json.loads(blob))


def test_round_trip_trivial_pair():
    f = named_form("S5a")
    proof = prove_pair(f, f, empirical_bound=500)
    assert certificate.check(certificate.emit(proof))


def test_round_trip_double_cover(s8):
    f, g = s8
    proof = prove_pair(f, g, empirical_bound=20000)
    blob = certificate.emit(proof)
    cert = json.loads(blob)
    assert cert["f_in_g"]["kind"] == "cover" and cert["g_in_f"]["kind"] == "cover"
    assert certificate.check(blob)


def test_emission_is_deterministic(s4_proof):
    assert certificate.emit(s4_proof) == certificate.emit(s4_proof)
    blob = certificate.emit(s4_proof)
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
    cert = copy.deepcopy(s4_cert)
    for rec in cert["g_in_f"]["classes"]:
        if rec["witnesses"]:
            del rec["witnesses"][0]
            break
    verdict = certificate.check(cert)
    assert not verdict.ok and "partition" in verdict.clause


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
        sid: certificate.emit(prove_pair(named_form(f"{sid}f"), named_form(f"{sid}g"),
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
    "witness_index": lambda c: (c["g_in_f"]["classes"][0]["witnesses"][0], 1),
    "transform_entry": lambda c: (c["g_in_f"]["classes"][0]["transforms"][0][0], 0),
    "eigenvalue": lambda c: (_class_with_escape(c)["escape"]["eigenvectors"][0], "eigenvalue"),
    "eigen_power": lambda c: (_class_with_escape(c)["escape"]["eigenvectors"][0], "power"),
    "eigen_base": lambda c: (_class_with_escape(c)["escape"]["eigenvectors"][0], "base"),
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


@pytest.mark.parametrize("path, junk", [
    (("g_in_f", "classes", 1, "escape"), 5),
    (("g_in_f", "classes", 0, "witnesses", 0), {}),
    (("g_in_f", "classes", 0, "witnesses", 0), []),
])
def test_malformed_records_rejected(s4_cert, path, junk):
    cert = copy.deepcopy(s4_cert)
    get_at(cert, path[:-1])[path[-1]] = junk
    verdict = certificate.check(cert)
    assert not verdict.ok and verdict.clause.endswith("schema")


def test_checker_runs_no_transform_search(s4_proof, monkeypatch):
    blob = certificate.emit(s4_proof)

    def boom(*args, **kwargs):
        raise AssertionError("checker must not search for transforms")

    monkeypatch.setattr(isometry, "find_transforms", boom)
    assert certificate.check(blob)
