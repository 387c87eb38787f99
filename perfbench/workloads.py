"""The four workloads: inputs, the timed pass, and the correctness gates.

Each workload has setup(seed, state) -> inputs, ops(inputs) -> one
zero-argument callable per operation (the timed pass; an exception is an
outcome, not a crash) and gate(inputs, outcomes, seed, first) -> Gate,
which runs after the timed pass and decides which operations failed.
A workload with split = True runs each input item in its own process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import ternrep as tr

import inputs

HERE = Path(__file__).resolve().parent
EMPIRICAL_BOUND = 10**4  # cross-check bound of prove_pair; keeps the search layers dominant
SWEEP_BOUND = 10**6
SWEEP_JOBS = 2
PERTURBATIONS_PER_CERT = 4


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    cert_bytes: int = 0

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an operation's failure is an outcome the gate judges
        return exc


def _op(fn, *args, **kwargs):
    return lambda: _attempt(fn, *args, **kwargs)


def _prove_and_emit(f, g):
    return tr.emit(tr.prove_pair(f, g, empirical_bound=EMPIRICAL_BOUND))


def matrix_paths(node, path=()):
    """Paths of every 3x3 integer matrix inside a parsed certificate."""
    found = []
    if isinstance(node, dict):
        for key, val in node.items():
            found.extend(matrix_paths(val, path + (key,)))
    elif isinstance(node, list):
        if (len(node) == 3 and all(isinstance(r, list) and len(r) == 3 for r in node)
                and all(type(x) is int for r in node for x in r)):
            found.append(path)
        else:
            for i, val in enumerate(node):
                found.extend(matrix_paths(val, path + (i,)))
    return found


def perturb(blob: bytes, rng: random.Random) -> dict:
    """The certificate with one entry of one of its 3x3 matrices moved by +-1..3."""
    cert = json.loads(blob)
    path = rng.choice(matrix_paths(cert))
    M = cert
    for key in path:
        M = M[key]
    M[rng.randrange(3)][rng.randrange(3)] += rng.choice((-3, -2, -1, 1, 2, 3))
    return cert


def perturbations_rejected(gate: Gate, label: str, blob: bytes, rng: random.Random, count: int):
    for k in range(count):
        verdict = _attempt(tr.check, perturb(blob, rng))
        gate.record(isinstance(verdict, tr.Verdict) and not verdict.ok,
                    f"{label}: perturbation {k} not rejected ({verdict!r})")


def _check_accepts(blob) -> bool:
    verdict = _attempt(tr.check, blob)
    return isinstance(verdict, tr.Verdict) and verdict.ok


class Prove:
    """prove_pair + emit on the pairs proved end to end (S4, S6, S7, S8)."""

    name = "prove"
    split = False

    def setup(self, seed, state):
        return inputs.pairs(seed, inputs.PROVE_SETS)

    def ops(self, items):
        return [_op(_prove_and_emit, f, g) for _, f, g in items]

    def gate(self, items, outcomes, seed, first):
        gate = Gate()
        for (sid, _, _), out in zip(items, outcomes):
            if isinstance(out, bytes):
                gate.cert_bytes += len(out)
                gate.record(_check_accepts(out), f"{sid}: certificate rejected")
            else:
                gate.record(False, f"{sid}: {out!r:.200}")
        return gate


class Unprovable:
    """prove_pair on pairs whose proof search fails today (S1, S5, S9, S12)."""

    name = "unprovable"
    split = False

    def setup(self, seed, state):
        return inputs.pairs(seed, inputs.UNPROVABLE_SETS)

    def ops(self, items):
        return [_op(tr.prove_pair, f, g, empirical_bound=EMPIRICAL_BOUND) for _, f, g in items]

    def gate(self, items, outcomes, seed, first):
        gate = Gate()
        for (sid, _, _), out in zip(items, outcomes):
            if isinstance(out, tr.ProofError):
                gate.record(True, "")
            elif isinstance(out, tr.PairProof):
                gate.record(_check_accepts(tr.emit(out)), f"{sid}: certificate rejected")
            else:
                gate.record(False, f"{sid}: {out!r:.200}")
        return gate


class Check:
    """certificate.check on the four prove certificates, made once per run."""

    name = "check"
    split = False

    def prepare(self, seed):
        """One operation per certificate, producing it with the code under test."""
        return [_op(_prove_and_emit, f, g) for _, f, g in inputs.pairs(seed, inputs.PROVE_SETS)]

    def setup(self, seed, state):
        blobs = json.loads(Path(state).read_text())
        return [(sid, blob.encode()) for sid, blob in zip(inputs.PROVE_SETS, blobs)]

    def ops(self, items):
        return [_op(tr.check, blob) for _, blob in items]

    def gate(self, items, outcomes, seed, first):
        gate = Gate()
        rng = random.Random(seed)
        for (sid, blob), verdict in zip(items, outcomes):
            gate.record(isinstance(verdict, tr.Verdict) and verdict.ok, f"{sid}: {verdict!r:.200}")
            gate.cert_bytes += len(blob)
            if first:
                perturbations_rejected(gate, sid, blob, rng, PERTURBATIONS_PER_CERT)
        return gate


class Sweep:
    """verify_pairwise at 10^6 over all fifteen catalog sets, one set per
    process, as `ternrep table --set S1` ... `--set S15`."""

    name = "sweep"
    split = True  # a round's peak memory is then the median over sets, not its worst set

    def setup(self, seed, state):
        return inputs.catalog(seed, tr.SET_IDS)

    def ops(self, items):
        return [_op(tr.verify_pairwise, forms, SWEEP_BOUND, jobs=SWEEP_JOBS) for _, forms in items]

    def gate(self, items, outcomes, seed, first):
        expected = json.loads((HERE / "sweep_counts.json").read_text())
        gate = Gate()
        for (sid, _), out in zip(items, outcomes):
            if isinstance(out, tuple):
                count, isometric = out
                gate.record(count == expected[sid] and not isometric,
                            f"{sid}: {count} values (seed 0: {expected[sid]}), isometric pairs {isometric}")
            else:
                gate.record(False, f"{sid}: {out!r:.200}")
        return gate


WORKLOADS = {w.name: w for w in (Prove(), Unprovable(), Check(), Sweep())}
