"""One benchmark process: prepare, set up only, or set up and run one round.

run.py starts a fresh interpreter for every round, so each round begins
with the empty caches of a new ternrep invocation.  A workload whose
items each get their own process (sweep: one catalog set per process)
runs a round as one process per item, chosen by --part; each of these
processes makes all the workload's inputs and keeps only its item.  The
process prints
one JSON report on its last line.  Times are taken on the monotonic
clock, which all processes of the machine share, so the set-up time
counts from the moment the parent started this process.  Each time is
reported raw and normalized by the speed probe (probe.py).

    python3 perfbench/child.py round --workload prove --seed 1 --spawned <t>
    python3 perfbench/child.py round --workload sweep --seed 1 --part 3 --spawned <t>
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import PROBE_REF_S, Timer, rescaled, speed_probe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("prepare", "setup", "round"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--state", help="certificate file of the check workload")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first", type=int, default=0, help="also run the once-per-run gates")
    p.add_argument("--spans", help="where a traced round writes its spans")
    p.add_argument("--part", type=int, default=0, help="which item, for a workload split by item")
    return p.parse_args(argv)


def forms_used(name, seed):
    import inputs
    from ternrep import SET_IDS

    if name == "sweep":
        return {sid: [list(f.coefficients) for f in forms] for sid, forms in inputs.catalog(seed, SET_IDS)}
    sets = inputs.UNPROVABLE_SETS if name == "unprovable" else inputs.PROVE_SETS
    return {sid: [list(f.coefficients), list(g.coefficients)] for sid, f, g in inputs.pairs(seed, sets)}


def main(argv=None) -> int:
    args = _parse(argv)
    import ternrep

    if not Path(ternrep.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ternrep was imported from {ternrep.__file__}, not from this checkout", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    report = {}
    if args.mode == "prepare":
        started = time.perf_counter() - args.spawned
        timer = Timer()
        blobs = [timer.time(op) for op in workload.prepare(args.seed)]
        Path(args.state).write_text(json.dumps([b.decode() for b in blobs]))
        report["prep_raw_s"] = started + timer.raw
        report["prep_s"] = started * PROBE_REF_S / timer.probes[0] + timer.normalized
        print(json.dumps(report))
        return 0

    items = workload.setup(args.seed, args.state)
    report["parts"] = len(items) if workload.split else 1
    if workload.split:
        items = items[args.part:args.part + 1]
    report["setup_raw_s"] = time.perf_counter() - args.spawned
    settle = statistics.median(speed_probe() for _ in range(3))
    report["setup_s"] = report["setup_raw_s"] * PROBE_REF_S / settle
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    timer = Timer()
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        hits = layers.find_transforms_hits()
    outcomes = [timer.time(op) for op in workload.ops(items)]
    report["round_s"] = timer.normalized
    report["round_raw_s"] = timer.raw
    report["probe_s"] = statistics.median(timer.probes)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        totals = layers.layer_totals(tracer, layers.find_transforms_hits() - hits)
        report["layers"] = rescaled(totals, timer.normalized / timer.raw if timer.raw else 1.0)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))

    gate = workload.gate(items, outcomes, args.seed, bool(args.first))
    report.update(attempted=gate.attempted, failed=gate.failed, notes=gate.notes,
                  cert_bytes=gate.cert_bytes)
    if args.first:
        import numpy

        report["numpy"] = numpy.__version__
        report["forms"] = forms_used(args.workload, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
