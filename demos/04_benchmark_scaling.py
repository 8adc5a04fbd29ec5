"""Walkthrough: how per-operation cost scales with model size.

Three engines answer one protocol (update_evidence, bel_query, counter):

* full       - reruns two-pass propagation on every query (linear)
* path       - keeps bottom-up messages current, walks root-to-node per
               query (linear in depth, so bad on chains)
* hierarchy  - contraction hierarchy, logarithmic updates and queries

We run the same deterministic op script against each engine on growing
chains and print the matrix-op counts per operation.  Counts, not wall
time, are the honest metric here: they are exactly reproducible and free
of interpreter noise.
"""

import numpy as np

from treebelief.bench import cycle_op_ratio, run_bench, to_csv

# ----------------------------------------------------------------------
# Scaling table: chains of 64..4096 states, 40 alternating update/query
# operations each, k=2.  Every engine replays the identical script.

SIZES = [64, 256, 1024, 4096]
records = run_bench("chain", SIZES, k=2, ops=40, seed=7)

print("matrix-vector products per query (20 queries each):")
print(f"{'N':>6}  {'full':>8}  {'path':>8}  {'hierarchy':>9}")
per_query = {}
for r in records:
    if r.op == "query":
        per_query[(r.engine, r.n)] = r.count_mv / 20
for n in SIZES:
    print(f"{n:6d}  {per_query[('full', n)]:8.1f}  "
          f"{per_query[('path', n)]:8.1f}  {per_query[('hierarchy', n)]:9.1f}")

print("\nmat-vec + mat-mat per update:")
print(f"{'N':>6}  {'full':>8}  {'path':>8}  {'hierarchy':>9}")
per_update = {}
for r in records:
    if r.op == "update":
        per_update[(r.engine, r.n)] = (r.count_mv + r.count_mm) / 20
for n in SIZES:
    print(f"{n:6d}  {per_update[('full', n)]:8.1f}  "
          f"{per_update[('path', n)]:8.1f}  {per_update[('hierarchy', n)]:9.1f}")

# Full propagation defers all work to queries, so its updates are free and
# its queries cost ~2 mat-vec per node.  The hierarchy column grows by a
# constant per doubling of N: that is the logarithm showing up.

# ----------------------------------------------------------------------
# The headline figure: total matrix ops per update+query cycle, full vs
# hierarchy, on a 300-state chain (601 nodes including evidence leaves).

ratio = cycle_op_ratio(length=300, k=2, cycles=100, seed=109)
print(f"\n{ratio['nodes']}-node chain, k={ratio['k']}, "
      f"{ratio['cycles']} update+query cycles:")
print(f"  full:      {ratio['full']:.1f} matrix ops per cycle")
print(f"  hierarchy: {ratio['hierarchy']:.1f} matrix ops per cycle")
print(f"  ratio:     {ratio['ratio']:.1f}x")

# ----------------------------------------------------------------------
# The same records serialize to CSV for plotting elsewhere.

csv = to_csv(records)
print(f"\nCSV output ({len(csv.splitlines())} lines), first rows:")
print("\n".join(csv.splitlines()[:4]))
