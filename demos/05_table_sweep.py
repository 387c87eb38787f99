"""Empirical sweep of the bundled catalog.

Each of the fifteen sets holds forms that are pairwise inequivalent yet
share every represented value; this scans them all up to a bound
(default 10^5, pass another as the first argument) and re-checks the
non-equivalence.
"""

import sys
import time

import ternrep as tr

bound = int(sys.argv[1]) if len(sys.argv) > 1 else 10**5

total = time.perf_counter()
for sid in tr.SET_IDS:
    t0 = time.perf_counter()
    report = tr.verify_table(sid, bound=bound)
    print(
        f"{sid:>4}: {len(report.forms)} forms, {report.value_count} shared values, "
        f"non-isometric: {report.all_non_isometric}  [{time.perf_counter() - t0:.1f}s]"
    )
print(f"\nall {len(tr.SET_IDS)} sets verified up to {bound} in {time.perf_counter() - total:.1f}s")
