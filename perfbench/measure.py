"""The two kinds of run: untraced (end-to-end metrics) and traced (per-layer).

Both are closed loops with one client: each call into the package waits for
the previous one, as a library caller does.
"""

from __future__ import annotations

import gc
import io
import sys
import time
import traceback
import types

import numpy as np

from treebelief import cli, exact, linalg
from hostspeed import HostSpeed
from tracing import Tracer, matrix_bytes
from workloads import SessionEngine

# Untraced runs interleave the phases in many short rounds and take every
# figure from all of a run's samples, each scaled to reference speed by the
# host-speed probes around its window (hostspeed.py).
ROUNDS = 150
WARMUP_ROUNDS = 3  # untimed rounds after set-up, before the first timed one
PREDICT_EVERY = 10  # rounds per timed all-beliefs pass
LONG_PROBES = 3  # host-speed probes on each side of a single long call
SHARES = {"mixed": 0.25, "burst": 0.6, "session": 0.15}  # of the run's seconds

# name -> unit.  The JSON result of an untraced run holds END_TO_END, of a
# traced run PER_LAYER (the metrics in BENCHMARK.json).  The *_REPORT_ONLY
# ones are printed as report lines only: the p99s spread too much between runs
# on a contended host to be gated, failed_frac is 0 in every accepted run, and
# the layers run on one workload only.
END_TO_END = {
    "setup_s": "s",
    "model_mib": "MiB",
    "update_us_p50": "us",
    "query_us_p50": "us",
    "ops_per_s": "1/s",
    "full_sweep_s": "s",
    "session_ops_per_s": "1/s",
    "mutation_ms_p50": "ms",
    "predict_s": "s",
}
END_TO_END_REPORT_ONLY = {
    "update_us_p99": "us",
    "query_us_p99": "us",
    "mutation_ms_p99": "ms",
    "failed_frac": "ratio",
    "host.slowdown": "x",
}
PER_LAYER = {
    "tree.binarize.s": "s",
    "tree.validate.s": "s",
    "tree.validate.calls_per_setup": "count",
    "tree.set_evidence.us_mean": "us",
    "contract.build_hierarchy.self_s": "s",
    "contract.rake.self_us_mean": "us",
    "contract.copy_next.s": "s",
    "contract.levels": "count",
    "contract.rake.calls": "count",
    "contract.hierarchy_mib": "MiB",
    "contract.payload_mib": "MiB",
    "contract.recompute.calls_per_update": "count",
    "contract.recompute.us_mean": "us",
    "dynamic.update_evidence.self_us_p50": "us",
    "dynamic.bel_query.self_us_p50": "us",
    "dynamic.calc_pi_lambda.calls_per_query": "count",
    "dynamic.calc_pi_lambda.self_us_mean": "us",
    "linalg.apply.calls_per_query": "count",
    "linalg.apply_transpose.calls_per_query": "count",
    "linalg.apply.us_mean": "us",
    "linalg.normalize.us_mean": "us",
    "linalg.rake_compose.us_mean": "us",
    "linalg.rescale_if_tiny.calls_per_op": "count",
    "linalg.rescale_if_tiny.us_mean": "us",
    "ops.mv_per_update": "count",
    "ops.mm_per_update": "count",
    "ops.mv_per_query": "count",
    "ops.flops_per_update": "count",
    "ops.flops_per_query": "count",
    "ops.mm_per_build": "count",
    "ops.bytes_per_update": "B_computed",
    "exact.propagate_all.s": "s",
    "exact.lambda_pass.s": "s",
    "cli.run_session.us_per_op": "us",
    "bench.trace_overhead_frac": "ratio",
}
PER_LAYER_REPORT_ONLY = {
    "failed_frac": "ratio",
    "formats.parse_btn.s": "s",
    "linalg.rescale_if_tiny.hit_ratio": "ratio",
    "jointree.mv.calls_per_query": "count",
    "jointree.mv.us_mean": "us",
    "jointree.mv_t.us_mean": "us",
    "protein.train.s": "s",
    "protein.chain_init.s": "s",
    "protein.predict.self_s": "s",
    "protein.predict.bel_query_calls": "count",
    "protein.mutate.us_p50": "us",
    "protein.mutate.recipes_per_mutation": "count",
    "protein.mutate.recipe_distinct_ratio": "ratio",
}

_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def deep_bytes(root, exclude=None) -> int:
    """Bytes of every object reachable from ``root`` (sys.getsizeof, numpy
    buffers through ``.base``), skipping classes, modules and functions and
    anything reachable from ``exclude``.  Deterministic; on the 40,001-node
    tree it read 63.596 MiB where a tracemalloc pass over the same build read
    63.591 MiB, without tracemalloc's 6.5x slowdown of the build."""
    seen: set[int] = set()
    total = 0
    for start, counting in ((exclude, False), (root, True)):
        stack = [start]
        while stack:
            o = stack.pop()
            if o is None or id(o) in seen or isinstance(o, _SHARED):
                continue
            seen.add(id(o))
            if counting:
                total += sys.getsizeof(o)
            if isinstance(o, np.ndarray):
                stack.append(o.base)
            else:
                stack.extend(gc.get_referents(o))
    return total


class Tally:
    """Operations attempted and failed; an exception or a wrong answer fails.
    The first failure of each kind is described on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: set[str] = set()

    def fail(self, kind: str, detail: str, count: int = 1) -> None:
        if kind not in self.kinds:
            self.kinds.add(kind)
            print(f"# failure ({kind}, op {self.attempted}): {detail}", file=sys.stderr)
        self.failed += count

    def error(self, exc: Exception) -> None:
        if "exception" not in self.kinds:
            traceback.print_exception(exc, file=sys.stderr)
        self.fail("exception", repr(exc))

    def belief(self, b) -> None:
        """Cheap check of a loop answer: a finite distribution."""
        if not (np.all(np.isfinite(b)) and b.min() >= 0.0 and abs(b.sum() - 1.0) <= 1e-9):
            self.fail("belief", f"not a distribution: {b!r}")

    def checkpoint(self, wl, answers, host: HostSpeed | None = None) -> float:
        """Compare engine beliefs with a full propagation; returns its time,
        at reference speed when ``host`` is given."""
        if host is None:
            t0 = time.perf_counter()
            bel = exact.propagate_all(wl.tree)
            sweep = time.perf_counter() - t0
        else:
            bel, sweep = _timed(host, lambda: exact.propagate_all(wl.tree))
        compared, bad = wl.check(bel, answers)
        self.attempted += compared
        if bad:
            self.fail("checkpoint", f"{bad} of {compared} beliefs differ from "
                      "exact.propagate_all by more than 1e-9", bad)
        return sweep


def _session_pass(wl, chunks, tally: Tally, budget_s: float | None):
    """Feed protocol chunks to cli.run_session until the budget is spent (or
    once through, without a budget).  Returns (ops, seconds in run_session)."""
    engine = SessionEngine(wl.engine)
    ops, spent, j = 0, 0.0, 0
    while True:
        text = chunks[j % len(chunks)]
        j += 1
        inp, out = io.StringIO(text), io.StringIO()
        t0 = time.perf_counter()
        try:
            cli.run_session(engine, inp, out)
        except Exception as exc:
            tally.error(exc)
        spent += time.perf_counter() - t0
        n = text.count("\n")
        ops += n
        tally.attempted += n
        replies = out.getvalue().splitlines()
        good = sum(1 for r in replies if r.startswith(("ok", "bel ")))
        if good < n:
            other = [r for r in replies if not r.startswith(("ok", "bel "))]
            tally.fail("session", f"{n - good} of {n} lines without ok/bel: {other[:3]}", n - good)
        if budget_s is None and j == len(chunks):
            return ops, spent
        if budget_s is not None and spent >= budget_s:
            return ops, spent


def _timed(host: HostSpeed, fn):
    """Call ``fn`` after a full collection, so the collections inside it
    depend only on its own allocations; returns (its result, its time in s
    at reference speed)."""
    gc.collect()
    before = [host.probe() for _ in range(LONG_PROBES)]
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    after = [host.probe() for _ in range(LONG_PROBES)]
    return out, elapsed * host.scale(*before, *after)


def _cat(windows) -> np.ndarray:
    return np.concatenate(windows) if windows else np.full(1, np.nan)


def run_untraced(wl, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    host = HostSpeed()
    setup = []
    for _ in range(wl.setup_reps):
        wl.release()  # outside the timing: freeing the last model is not set-up
        setup.append(_timed(host, wl.setup)[1])
    model_bytes = deep_bytes(wl.model())

    # per-sample ns and window totals, all at reference speed
    upd, qry, bursts, predicts, sweeps = [], [], [], [], []
    mixed_ops = session_ops = 0
    mixed_s = session_s = 0.0
    chunks = wl.session_chunks()
    i = b = 0
    per_round = seconds / ROUNDS
    clock = time.perf_counter_ns
    probe = host.probe()
    for r in range(-WARMUP_ROUNDS, ROUNDS):
        timed = r >= 0
        # mixed closed loop: update, then query
        u, q, answers = [], [], []
        deadline = clock() + int(per_round * SHARES["mixed"] * 1e9)
        start = clock()
        while True:
            t0 = clock()
            try:
                wl.update(i)
                t1 = clock()
                ans = wl.query(i)
                t2 = clock()
            except Exception as exc:
                tally.error(exc)
                t2 = clock()
            else:
                u.append(t1 - t0)
                q.append(t2 - t1)
                answers.append(ans)
            i += 1
            tally.attempted += 2
            if t2 >= deadline:
                break
        elapsed = (clock() - start) / 1e9
        before, probe = probe, host.probe()
        if timed and u:
            f = host.scale(before, probe)
            upd.append(np.array(u) * f)
            qry.append(np.array(q) * f)
            mixed_ops += 2 * len(u)
            mixed_s += elapsed * f
        for ans in answers:
            tally.belief(ans)

        window = []
        deadline = clock() + int(per_round * SHARES["burst"] * 1e9)
        while True:
            t0 = clock()
            try:
                wl.burst(b)
            except Exception as exc:
                tally.error(exc)
            else:
                window.append(clock() - t0)
            b += 1
            tally.attempted += 1
            if clock() >= deadline:
                break
        before, probe = probe, host.probe()
        if timed and window:
            bursts.append(np.array(window) * host.scale(before, probe))

        ops, spent = _session_pass(wl, chunks, tally, per_round * SHARES["session"])
        before, probe = probe, host.probe()
        if timed:
            session_ops += ops
            session_s += spent * host.scale(before, probe)

        if not timed:
            continue
        check = (r + 1) % (ROUNDS // wl.checkpoints) == 0
        if check or (r + 1) % PREDICT_EVERY == 0:
            answers, elapsed = _timed(host, wl.predict)
            predicts.append(elapsed)
            tally.attempted += 1
        if check:  # the pass just before it is the one checked
            sweeps.append(tally.checkpoint(wl, answers, host))
        probe = host.probes[-1]

    upd, qry, bursts = _cat(upd), _cat(qry), _cat(bursts)
    us = lambda xs, q: float(np.percentile(xs, q)) / 1e3
    metrics = {
        "setup_s": float(np.median(setup)),
        "model_mib": model_bytes / 2**20,
        "update_us_p50": us(upd, 50),
        "update_us_p99": us(upd, 99),
        "query_us_p50": us(qry, 50),
        "query_us_p99": us(qry, 99),
        "ops_per_s": mixed_ops / mixed_s,
        "full_sweep_s": float(np.median(sweeps)),
        "session_ops_per_s": session_ops / session_s,
        "mutation_ms_p50": us(bursts, 50) / 1e3,
        "mutation_ms_p99": us(bursts, 99) / 1e3,
        "predict_s": float(np.median(predicts)),
        "host.slowdown": host.slowdown(),
    }
    samples = {
        "setup_s": len(setup),
        "update_us_p50": upd.size,
        "query_us_p50": qry.size,
        "ops_per_s": mixed_ops,
        "full_sweep_s": len(sweeps),
        "session_ops_per_s": session_ops,
        "mutation_ms_p50": bursts.size,
        "predict_s": len(predicts),
        "host.slowdown": len(host.probes),
    }
    for name in ("update_us", "query_us", "mutation_ms"):
        samples[f"{name}_p99"] = samples[f"{name}_p50"]
    return metrics, tally, samples


# ----------------------------------------------------------------------
# traced run

COUNT_PAIRS = 1000  # fixed (update, query) pairs, so counts repeat exactly
TRACED_BURSTS = 100


def _counted_pairs(wl, pairs: int, tracer: Tracer | None):
    """Run the first ``pairs`` mixed pairs; returns (wall s, OpCounter deltas
    per kind)."""
    c = wl.engine.counter
    totals = {"update": linalg.OpCounter(), "query": linalg.OpCounter()}
    t0 = time.perf_counter()
    for i in range(pairs):
        for kind, op in (("update", wl.update), ("query", wl.query)):
            if tracer is not None:
                tracer.begin(kind)
            before = c.snapshot()
            op(i)
            d = c.delta(before)
            agg = totals[kind]
            agg.mat_vec += d.mat_vec
            agg.mat_mat += d.mat_mat
            agg.flops += d.flops
    return time.perf_counter() - t0, totals


def run_traced(wl, pairs: int = COUNT_PAIRS, bursts: int = TRACED_BURSTS):
    """Fixed counts rather than a time budget, so that counts repeat exactly."""
    tally = Tally()
    tracer = Tracer()
    with tracer.installed():
        tracer.begin("setup")
        wl.setup()
    hier = wl.engine.hier
    mem = {
        "model_mib": deep_bytes(wl.model()) / 2**20,
        "contract.hierarchy_mib": deep_bytes(hier, exclude=wl.tree) / 2**20,
        # distinct cells x matrix bytes
        "contract.payload_mib": sum(
            matrix_bytes(c.value)
            for c in {id(c): c for lt in hier.levels for c in lt.cell.values()}.values()
        ) / 2**20,
    }

    # the same pairs untraced, then traced: op counts must agree exactly
    gc.collect()
    plain_s, plain = _counted_pairs(wl, pairs, None)
    gc.collect()
    with tracer.installed():
        traced_s, traced = _counted_pairs(wl, pairs, tracer)
        for b in range(bursts):
            tracer.begin("burst")
            wl.burst(b)
        tracer.begin("session")
        session_ops, _ = _session_pass(wl, wl.session_chunks(), tally, None)
        tracer.begin("predict")  # right before the checkpoint that checks it
        answers = wl.predict()
        tracer.begin("checkpoint")
        tally.checkpoint(wl, answers)
    tally.attempted += 2 * pairs + bursts + 1
    for kind in ("update", "query"):
        if vars(plain[kind]) != vars(traced[kind]):
            tally.fail("op counts", f"{kind} counts differ under tracing: "
                       f"{vars(plain[kind])} vs {vars(traced[kind])}")

    m = _layer_metrics(tracer, pairs, session_ops)
    m.update(mem)
    m["contract.levels"] = len(hier.levels)
    m["ops.mv_per_update"] = plain["update"].mat_vec / pairs
    m["ops.mm_per_update"] = plain["update"].mat_mat / pairs
    m["ops.mv_per_query"] = plain["query"].mat_vec / pairs
    m["ops.flops_per_update"] = plain["update"].flops / pairs
    m["ops.flops_per_query"] = plain["query"].flops / pairs
    m["ops.mm_per_build"] = wl.engine.build_counter.mat_mat
    m["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    return m, tally, tracer


def _layer_metrics(tracer: Tracer, pairs: int, session_ops: int) -> dict:
    a = tracer.arrays()
    kinds = np.array(tracer.op_kinds)[a["op"]]
    dur = a["end"] - a["start"]
    self_ns = dur - a["child"]
    code = {n: i for i, n in enumerate(tracer.names)}

    def sel(name, *ks):
        m = a["name"] == code[name]
        return m & np.isin(kinds, ks) if ks else m

    def mean(x, scale):
        return float(x.mean()) / scale if x.size else None

    def median(x, scale):
        return float(np.median(x)) / scale if x.size else None

    def total(x, scale):
        return float(x.sum()) / scale if x.size else None

    loop = ("update", "query")
    m = {
        "tree.binarize.s": total(dur[sel("tree.binarize", "setup")], 1e9),
        "tree.validate.s": total(dur[sel("tree.validate", "setup")], 1e9),
        "tree.validate.calls_per_setup": int(sel("tree.validate", "setup").sum()),
        "tree.set_evidence.us_mean": mean(dur[sel("tree.set_evidence", "update")], 1e3),
        "contract.build_hierarchy.self_s": total(self_ns[sel("contract.build_hierarchy", "setup")], 1e9),
        "contract.rake.self_us_mean": mean(self_ns[sel("contract.rake", "setup")], 1e3),
        "contract.copy_next.s": total(dur[sel("contract.copy_next", "setup")], 1e9),
        "contract.rake.calls": int(sel("contract.rake", "setup").sum()),
        "contract.recompute.calls_per_update": sel("contract.recompute", "update").sum() / pairs,
        "contract.recompute.us_mean": mean(dur[sel("contract.recompute", "update")], 1e3),
        "dynamic.update_evidence.self_us_p50": median(self_ns[sel("dynamic.update_evidence", "update")], 1e3),
        "dynamic.bel_query.self_us_p50": median(self_ns[sel("dynamic.bel_query", "query")], 1e3),
        "dynamic.calc_pi_lambda.calls_per_query": sel("dynamic.calc_pi_lambda", "query").sum() / pairs,
        "dynamic.calc_pi_lambda.self_us_mean": mean(self_ns[sel("dynamic.calc_pi_lambda", "query")], 1e3),
        "linalg.apply.calls_per_query": sel("linalg.apply", "query").sum() / pairs,
        "linalg.apply_transpose.calls_per_query": sel("linalg.apply_transpose", "query").sum() / pairs,
        "linalg.apply.us_mean": mean(dur[sel("linalg.apply", *loop)], 1e3),
        "linalg.normalize.us_mean": mean(dur[sel("linalg.normalize", "query")], 1e3),
        "linalg.rake_compose.us_mean": mean(dur[sel("linalg.rake_compose")], 1e3),
        "linalg.rescale_if_tiny.calls_per_op": sel("linalg.rescale_if_tiny", *loop).sum() / (2 * pairs),
        "linalg.rescale_if_tiny.us_mean": mean(dur[sel("linalg.rescale_if_tiny", *loop)], 1e3),
        "linalg.rescale_if_tiny.hit_ratio": mean(a["note"][sel("linalg.rescale_if_tiny")], 1),
        "ops.bytes_per_update": a["note"][sel("linalg.rake_compose", "update")].sum() / pairs,
        "exact.propagate_all.s": total(dur[sel("exact.propagate_all", "checkpoint")], 1e9),
        "exact.lambda_pass.s": total(dur[sel("exact.lambda_pass", "checkpoint")], 1e9),
        "cli.run_session.us_per_op": dur[sel("cli.run_session", "session")].sum() / 1e3 / session_ops,
        "formats.parse_btn.s": total(dur[sel("formats.parse_btn", "setup")], 1e9),
        "jointree.mv.calls_per_query": sel("jointree.mv", "query").sum() / pairs,
        "jointree.mv.us_mean": mean(dur[sel("jointree.mv", *loop)], 1e3),
        "jointree.mv_t.us_mean": mean(dur[sel("jointree.mv_t", *loop)], 1e3),
        "protein.train.s": total(dur[sel("protein.train", "setup")], 1e9),
        "protein.chain_init.s": total(dur[sel("protein.chain_init", "setup")], 1e9),
        "protein.predict.self_s": total(self_ns[sel("protein.predict", "predict")], 1e9),
        "protein.predict.bel_query_calls": int(
            (sel("dynamic.bel_query") & (a["name"][a["parent"]] == code["protein.predict"])).sum()),
        "protein.mutate.us_p50": median(dur[sel("protein.mutate", "burst")], 1e3),
    }
    m.update(_mutation_recipes(a, code))
    return {k: (float(v) if v is not None else None) for k, v in m.items()}


def _mutation_recipes(a, code) -> dict:
    """Recipes recomputed per ProteinChain.mutate call, and the share of them
    that are distinct (adjacent windows share upper recipe levels)."""
    mut = np.flatnonzero(a["name"] == code["protein.mutate"])
    if mut.size == 0:
        return {"protein.mutate.recipes_per_mutation": None,
                "protein.mutate.recipe_distinct_ratio": None}
    rec = np.flatnonzero(a["name"] == code["contract.recompute"])
    owner = a["parent"][rec]
    for _ in range(8):  # recompute <- update_evidence <- mutate
        walk = (owner >= 0) & (a["name"][np.maximum(owner, 0)] != code["protein.mutate"])
        if not walk.any():
            break
        owner = np.where(walk, a["parent"][np.maximum(owner, 0)], owner)
    inside = owner >= 0
    pairs = {(int(o), int(r)) for o, r in zip(owner[inside], a["note"][rec[inside]])}
    n_rec = int(inside.sum())
    return {
        "protein.mutate.recipes_per_mutation": n_rec / mut.size,
        "protein.mutate.recipe_distinct_ratio": len(pairs) / n_rec if n_rec else None,
    }
