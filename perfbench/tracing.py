"""Span tracing by wrapping the package's public functions from outside.

Callers inside the package reach these functions through a module attribute
(``linalg.apply``), a class attribute (``DynamicEngine.bel_query``) or a name
imported into another module (``formats.binarize``), so replacing each of
those attributes with a recording wrapper traces every call without touching
the package.  Spans stay in memory; ``save`` writes them when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from treebelief import cli, contract, dynamic, exact, formats, jointree, linalg, protein, tree


def matrix_bytes(m) -> int:
    """Bytes of a dense matrix or vector, or of both factors of a factored one."""
    if hasattr(m, "left"):
        return m.left.nbytes + m.right.nbytes
    return np.asarray(m).nbytes


def _rake_bytes(args, out) -> int:
    """Operand and result bytes of one rake_compose (computed, not measured)."""
    return sum(matrix_bytes(a) for a in args[:4]) + matrix_bytes(out)


def _rescaled(args, out) -> int:
    return int(out is not args[0])


def _recipe_id(args, out) -> int:
    return id(args[0])


# span name -> (owners of the attribute, attribute, note taken from the call)
TARGETS = {
    "formats.parse_btn": ([formats], "parse_btn", None),
    "tree.binarize": ([tree, formats, protein], "binarize", None),
    "tree.validate": ([tree.CausalTree], "validate", None),
    "tree.set_evidence": ([tree.CausalTree], "set_evidence", None),
    "contract.build_hierarchy": ([contract, dynamic], "build_hierarchy", None),
    "contract.rake": ([contract], "rake", None),
    "contract.copy_next": ([contract.LevelTree], "copy_next", None),
    "contract.recompute": ([contract.Recipe], "recompute", _recipe_id),
    "dynamic.update_evidence": ([dynamic.DynamicEngine], "update_evidence", None),
    "dynamic.bel_query": ([dynamic.DynamicEngine], "bel_query", None),
    "dynamic.calc_pi_lambda": ([dynamic.DynamicEngine], "calc_pi_lambda", None),
    "linalg.apply": ([linalg], "apply", None),
    "linalg.apply_transpose": ([linalg], "apply_transpose", None),
    "linalg.normalize": ([linalg], "normalize", None),
    "linalg.rescale_if_tiny": ([linalg], "rescale_if_tiny", _rescaled),
    "linalg.rake_compose": ([linalg], "rake_compose", _rake_bytes),
    "exact.propagate_all": ([exact], "propagate_all", None),
    "exact.lambda_pass": ([exact], "lambda_pass", None),
    "jointree.mv": ([jointree.FactoredMatrix], "mv", None),
    "jointree.mv_t": ([jointree.FactoredMatrix], "mv_t", None),
    "protein.train": ([protein], "train", None),
    "protein.chain_init": ([protein.ProteinChain], "__init__", None),
    "protein.predict": ([protein.ProteinChain], "predict", None),
    "protein.mutate": ([protein.ProteinChain], "mutate", None),
    "protein.mutagenesis": ([protein], "mutagenesis", None),
    "cli.run_session": ([cli], "run_session", None),
}


class Tracer:
    """In-memory span recorder.

    Each span is [name id, start ns, end ns, parent span, op id, child ns,
    note]; self time is end - start - child ns.  ``begin(kind)`` opens a new
    benchmark operation that later spans are attributed to.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_kinds: list[str] = []

    def begin(self, kind: str) -> None:
        self.op_kinds.append(kind)
        self.op = len(self.op_kinds) - 1

    def wrap(self, name: str, fn, note):
        code = self.names.index(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [code, 0, 0, parent, self.op, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if note is not None:
                rec[6] = note(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, (owners, attr, note) in TARGETS.items():
                original = getattr(owners[0], attr)
                wrapper = self.wrap(name, original, note)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        a = np.array(self.spans, dtype=np.int64).reshape(-1, 7)
        return {
            "name": a[:, 0],
            "start": a[:, 1],
            "end": a[:, 2],
            "parent": a[:, 3],
            "op": a[:, 4],
            "child": a[:, 5],
            "note": a[:, 6],
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            **self.arrays(),
        )
