import random

import pytest

import ternrep as tr
import workloads


@pytest.fixture(scope="module")
def s4_blob():
    f, g = tr.named_form("S4f"), tr.named_form("S4g")
    return tr.emit(tr.prove_pair(f, g, empirical_bound=1000))


def test_check_gate_passes_a_good_certificate(s4_blob):
    items = [("S4", s4_blob)]
    gate = workloads.Check().gate(items, [tr.check(s4_blob)], seed=1, first=True)
    assert gate.attempted == 1 + workloads.PERTURBATIONS_PER_CERT
    assert gate.failed == 0 and gate.cert_bytes == len(s4_blob)


def test_perturbed_certificate_trips_the_check_gate(s4_blob):
    import json

    bad = json.dumps(workloads.perturb(s4_blob, random.Random(0))).encode()
    gate = workloads.Check().gate([("S4", bad)], [tr.check(bad)], seed=1, first=False)
    assert gate.failed == 1 and gate.notes


def test_prove_gate_rejects_an_exception_and_accepts_a_certificate(s4_blob):
    items = [("S4", None, None), ("S6", None, None)]
    gate = workloads.Prove().gate(items, [s4_blob, RuntimeError("boom")], seed=0, first=False)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_unprovable_gate_accepts_proof_errors_only():
    items = [("S1", None, None), ("S9", None, None)]
    gate = workloads.Unprovable().gate(items, [tr.NoEscapeMatrix("x"), ValueError("y")], seed=0,
                                       first=False)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_sweep_gate_compares_with_the_seed_zero_counts():
    items = [("S7", ()), ("S15", ()), ("S4", ())]
    outcomes = [(381942, ()), (458321, ((0, 1),)), (1, ())]
    gate = workloads.Sweep().gate(items, outcomes, seed=0, first=False)
    assert (gate.attempted, gate.failed) == (3, 2)
