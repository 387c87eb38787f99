"""ternrep benchmark runner.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

Runs rounds of one workload, each in a fresh interpreter (child.py), one
at a time, until --seconds have passed.  A round of sweep is one fresh
interpreter per catalog set, run one after another.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones, with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, finish, summed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("prove", "unprovable", "check", "sweep")
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 160


class ChildFailed(RuntimeError):
    pass


def spawn(mode, args, **extra):
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed)]
    for key, value in extra.items():
        if value is not None:
            cmd += [f"--{key}", str(value)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "seed": seed,
    }


def combine(procs):
    """The report of a round from those of its processes: times and counts
    add up, peak memory is the median over the processes."""
    report = {
        "round_s": sum(p["round_s"] for p in procs),
        "round_raw_s": sum(p["round_raw_s"] for p in procs),
        "probe_s": statistics.median(p["probe_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "notes": [n for p in procs for n in p["notes"]],
        "cert_bytes": sum(p["cert_bytes"] for p in procs),
    }
    if "layers" in procs[0]:
        report["layers"] = finish(summed([p["layers"] for p in procs]))
    for key in ("numpy", "forms"):
        if key in procs[0]:
            report[key] = procs[0][key]
    return report


def run_round(args, state, trace, first):
    """One round and the reports of its processes: one process, or one per
    item of a workload split by item."""
    procs = []
    parts = 1
    while len(procs) < parts:
        k = len(procs)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-part{k}.json" if trace else None
        procs.append(spawn("round", args, state=state, trace=int(trace), first=int(first and k == 0),
                           spans=spans, part=k))
        parts = procs[0]["parts"]
    return combine(procs), procs


def run_rounds(args, state):
    """Round reports, untraced and traced, and the reports of every process.

    A further round starts only while another one as long as the last
    still fits in --seconds; there is always at least one round (with
    --trace 1, one untraced and one traced).
    """
    untraced, traced, procs = [], [], []
    start = time.perf_counter()
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        began = time.perf_counter()
        report, round_procs = run_round(args, state, want_trace, first=not untraced and not traced)
        (traced if want_trace else untraced).append(report)
        procs += round_procs
        now = time.perf_counter()
        fits = now - start + (now - began) <= args.seconds
        if not fits and (traced or not args.trace):
            return untraced, traced, procs


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ternrep" / "__init__.py").is_file():
        print(f"no ternrep sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))

    prep = {"prep_s": 0.0, "prep_raw_s": 0.0}
    state = None
    try:
        if args.workload == "check":
            state = OUT / f"certs-seed{args.seed}.json"
            prep = spawn("prepare", args, state=state)
        untraced, traced, setups = run_rounds(args, state)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn("setup", args, state=state))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    rounds = untraced + traced
    first = next(r for r in rounds if "forms" in r)
    print("inputs " + json.dumps({"numpy": first["numpy"], "forms": first["forms"]}))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for note in sorted({n for r in rounds for n in r["notes"]}):
        print(f"FAILED {note}")
    print(f"rounds untraced={len(untraced)} traced={len(traced)} "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    for label, reports in (("untraced", untraced), ("traced", traced)):
        for key in ("round_s", "round_raw_s", "probe_s"):
            if reports:
                print(f"{key} {label}: " + " ".join(f"{r[key]:.4f}" for r in reports))
    for key in ("setup_s", "setup_raw_s"):
        print(f"{key} samples: " + " ".join(f"{r[key]:.4f}" for r in setups)
              + f" (+ prepare {prep[key.replace('setup', 'prep')]:.4f})")

    metrics = {}
    if not args.trace:
        units = END_TO_END
        metrics["round_s"] = median_of(untraced, "round_s")
        metrics["setup_s"] = prep["prep_s"] + median_of(setups, "setup_s")
        metrics["peak_rss_mb"] = median_of(untraced, "peak_rss_mb")
    else:
        units = PER_LAYER
        for key in units:
            if key == "trace.overhead_s":
                metrics[key] = median_of(traced, "round_s") - median_of(untraced, "round_s")
            elif key == "cert_bytes":
                metrics[key] = traced[0]["cert_bytes"]
            else:
                metrics[key] = statistics.median(r["layers"][key] for r in traced)
    for key, value in metrics.items():
        print(f"{key:45s} {value:>16.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
