"""The ternrep names the benchmark harness in perfbench/ wraps or calls.

A refactor that deletes or renames one of them fails here, in the test
suite, instead of in a benchmark run.
"""

import inspect
from pathlib import Path

import ternrep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    def bound():
        return {(module.__name__, name): getattr(module, name)
                for module in layers.SPANNED.values() for name in layers.public_functions(module)}

    before = bound()
    tracer = Tracer()
    try:
        layers.install(tracer)  # getattr on every name the harness wraps
        assert all(bound()[key] is not fn for key, fn in before.items())
    finally:
        tracer.uninstall()
    assert bound() == before


def test_perfbench_workload_calls_bind():
    for name in ("prove_pair", "ProofError", "PairProof", "emit", "check", "Verdict", "SET_IDS"):
        assert hasattr(ternrep, name), name
    inspect.signature(ternrep.verify_pairwise).bind((), 1, jobs=2)
    assert ternrep.find_transforms(*ternrep.table_set("S4", 1), 4).complete
