"""Command-line surface.

Subcommands: check, session, contract-dump, bench, protein (train, predict,
mutate), polytree (session, bench).  Exit codes: 0 ok, 1 usage error, 2 data
error (bad file or model), 3 inconsistent evidence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from . import protein as protein_mod
from .contract import build_hierarchy
from .errors import FormatError, InconsistentEvidenceError, TreeBeliefError, UsageError
from .formats import parse_btn, parse_ptn

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INCONSISTENT = 3


def _fmt_vec(v) -> str:
    return " ".join(f"{x:.17g}" for x in v)


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise FormatError(str(exc))
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: byte {exc.start} ({exc.reason})")


def _load_model(path: str):
    """Parse a BTN or PTN file by its header line."""
    lines = _read_lines(path)
    head = ""
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            head = body.split()[0]
            break
    if head == "PTN":
        return "ptn", parse_ptn(lines)
    return "btn", parse_btn(lines)


# ----------------------------------------------------------------------
# session protocol


class SessionEngine:
    """The update/query/stats surface `run_session` drives, over any engine
    of the protocol (update_evidence, bel_query, counter)."""

    def __init__(self, engine):
        self.engine = engine

    def update(self, node, likelihood) -> None:
        self.engine.update_evidence(node, likelihood)

    def query(self, node):
        return self.engine.bel_query(node)

    def stats(self):
        return self.engine.counter


def _parse(convert, toks: list[str], what: str) -> list:
    """`toks` converted by `convert`; UsageError naming the first token it
    rejects."""
    out = []
    try:
        for tok in toks:
            out.append(convert(tok))
    except ValueError:
        raise UsageError(f"not a {what}: {tok!r}")
    return out


def run_session(engine, instream, outstream) -> int:
    """Line protocol: update/query/stats/quit; errors keep the session alive."""
    for line in instream:
        toks = line.split()
        if not toks:
            continue
        cmd = toks[0]
        try:
            if cmd == "quit":
                return EXIT_OK
            elif cmd == "update":
                if len(toks) < 3:
                    raise UsageError("update needs a leaf id and k floats")
                [leaf] = _parse(int, toks[1:2], "node id")
                engine.update(leaf, _parse(float, toks[2:], "number"))
                outstream.write("ok\n")
            elif cmd == "query":
                if len(toks) != 2:
                    raise UsageError("query needs exactly one node id")
                [x] = _parse(int, toks[1:], "node id")
                outstream.write(f"bel {_fmt_vec(engine.query(x))}\n")
            elif cmd == "stats":
                c = engine.stats()
                outstream.write(f"stats mv={c.mat_vec} mm={c.mat_mat} flops={c.flops}\n")
            else:
                raise UsageError(f"unknown command {cmd!r}")
        except InconsistentEvidenceError:
            outstream.write("err inconsistent\n")
        except TreeBeliefError as exc:
            outstream.write(f"err {exc}\n")
        outstream.flush()
    return EXIT_OK


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_check(args) -> int:
    kind, model = _load_model(args.file)  # both parsers raise on any violation
    if kind == "btn":
        n_ev = len(model.evidence)
        print(f"ok: causal tree, {len(model.names)} nodes, k={model.k}, "
              f"{n_ev} evidence leaves")
    else:
        print(f"ok: polytree, {len(model.parents)} variables, k={model.k}")
    return EXIT_OK


def cmd_session(args) -> int:
    kind, model = _load_model(args.file)
    if kind != "btn":
        raise UsageError("session expects a BTN file (use `polytree session` for PTN)")
    engine = bench_mod.make_engine(args.engine, model)
    return run_session(SessionEngine(engine), sys.stdin, sys.stdout)


def cmd_contract_dump(args) -> int:
    kind, model = _load_model(args.file)
    if kind != "btn":
        raise UsageError("contract-dump expects a BTN file")
    hier = build_hierarchy(model)
    for line in hier.dump_lines():
        print(line)
    return EXIT_OK


def _parse_ints(text: str, option: str) -> list[int]:
    """The integers of a comma-separated list option such as `--sizes 64,256`.
    Every field must be an integer, so an empty value or an empty field is a
    UsageError naming `option`."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} must be comma-separated integers, got {text!r}")


def cmd_bench(args) -> int:
    sizes = _parse_ints(args.sizes, "--sizes")
    engines = [e for e in args.engines.split(",") if e]
    records = bench_mod.run_bench(args.shape, sizes, args.k, args.ops, args.seed, engines)
    sys.stdout.write(bench_mod.to_csv(records))
    if args.ratio:
        r = bench_mod.cycle_op_ratio(sizes[-1], args.k, max(1, args.ops // 2 or 25), args.seed)
        sys.stdout.write(
            f"# per-cycle matrix-op ratio full/hierarchy on a {r['nodes']}-node "
            f"chain (k={r['k']}): {r['ratio']:.2f}\n"
        )
    return EXIT_OK


def cmd_protein_train(args) -> int:
    corpus = protein_mod.parse_corpus(_read_lines(args.corpus))
    tables = protein_mod.train(corpus, args.w)
    tables.save(args.out)
    print(f"ok: w={tables.w}, k={tables.k}, saved to {args.out}")
    return EXIT_OK


def cmd_protein_predict(args) -> int:
    tables = protein_mod.ChainTables.load(args.model)
    chain = protein_mod.ProteinChain(args.sequence, tables)
    print(chain.predict())
    return EXIT_OK


def cmd_protein_mutate(args) -> int:
    tables = protein_mod.ChainTables.load(args.model)
    chain = protein_mod.ProteinChain(args.sequence, tables)
    watch = _parse_ints(args.watch, "--watch")
    records = protein_mod.mutagenesis(chain, args.site, args.residue, watch)
    k = tables.k
    before_cols = ",".join(f"bel_before_{i}" for i in range(k))
    after_cols = ",".join(f"bel_after_{i}" for i in range(k))
    print(f"site,watch_site,{before_cols},{after_cols},argmax_changed")
    for r in records:
        b = ",".join(f"{v:.17g}" for v in r.bel_before)
        a = ",".join(f"{v:.17g}" for v in r.bel_after)
        print(f"{r.site},{r.watch},{b},{a},{int(r.argmax_changed)}")
    return EXIT_OK


def cmd_polytree_session(args) -> int:
    kind, model = _load_model(args.file)
    if kind != "ptn":
        raise UsageError("polytree session expects a PTN file")
    engine = bench_mod.make_engine(args.engine, model)
    return run_session(SessionEngine(engine), sys.stdin, sys.stdout)


def cmd_polytree_bench(args) -> int:
    if args.ops < 0:
        raise UsageError(f"ops must be >= 0, got {args.ops}")
    kind, model = _load_model(args.file)
    if kind != "ptn":
        raise UsageError("polytree bench expects a PTN file")
    rng = np.random.default_rng(args.seed)
    variables = sorted(model.parents)
    script = bench_mod.make_script(variables, variables, model.k, args.ops, rng)
    records = []
    for name in [e for e in args.engines.split(",") if e]:
        engine = bench_mod.make_engine(name, model)
        records += bench_mod.run_script(name, engine, script, "polytree", len(variables), model.k)
    sys.stdout.write(bench_mod.to_csv(records))
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treebelief",
        description="Belief updating in tree-structured probabilistic networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a BTN or PTN model file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("session", help="interactive update/query session on a BTN model")
    p.add_argument("file")
    p.add_argument("--engine", choices=list(bench_mod.ENGINES), default="hierarchy")
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("contract-dump", help="print the contraction hierarchy of a BTN model")
    p.add_argument("file")
    p.set_defaults(func=cmd_contract_dump)

    p = sub.add_parser("bench", help="operation-count scaling tables as CSV")
    p.add_argument("--shape", choices=list(bench_mod.SHAPES), default="chain")
    p.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engines", default=",".join(bench_mod.ENGINES))
    p.add_argument("--ratio", action="store_true",
                   help="also report the full/hierarchy per-cycle matrix-op ratio")
    p.set_defaults(func=cmd_bench)

    pp = sub.add_parser("protein", help="secondary-structure chain model")
    psub = pp.add_subparsers(dest="protein_command", required=True)

    p = psub.add_parser("train", help="train window tables from a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--w", type=int, default=2, choices=(2, 3))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_protein_train)

    p = psub.add_parser("predict", help="predict the structure string of a sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--sequence", required=True)
    p.set_defaults(func=cmd_protein_predict)

    p = psub.add_parser("mutate", help="mutate one site and report watch-window beliefs")
    p.add_argument("--model", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--residue", required=True)
    p.add_argument("--watch", required=True, help="comma-separated watch window indices")
    p.set_defaults(func=cmd_protein_mutate)

    pt = sub.add_parser("polytree", help="polytree session and bench on PTN models")
    ptsub = pt.add_subparsers(dest="polytree_command", required=True)

    p = ptsub.add_parser("session", help="update/query session on a PTN model")
    p.add_argument("file")
    p.add_argument("--engine", choices=list(bench_mod.POLYTREE_ENGINE_CLASSES),
                   default="hierarchy")
    p.set_defaults(func=cmd_polytree_session)

    p = ptsub.add_parser("bench", help="operation counts for a PTN model as CSV")
    p.add_argument("file")
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engines", default="hierarchy,full")
    p.set_defaults(func=cmd_polytree_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except TreeBeliefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
