"""Outside-in layer trace of helmqo.

While installed, a :class:`Tracer` replaces every public function of each
helmqo module, and the ``Mesh`` constructor, with a wrapper that records a
span.  A function is rebound in *every* ``helmqo`` namespace that holds it,
because ``certify``, ``spectral`` and ``cli`` import ``ldlt``,
``count_below`` and others by name: patching only the defining module would
miss those calls.  Spans nest (``count_below`` -> ``ldlt``,
``compute_bounds`` -> ``spaces``); a span's self time is its duration minus
the time its child spans cover, and a layer's self time is the sum over its
spans.  Spans stay in memory until :meth:`Tracer.write_spans`.

A few wrappers also take counts from arguments and results (pencils
factorized, pairs computed, elements marked).  That bookkeeping is timed and
removed from the trace clock, so it shows in no span.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("mesh", "quadrature", "spaces", "sparsela", "spectral",
          "estimator", "certify", "cli")


def _digest(matrix) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        h.update(arr.tobytes())
    return h.digest()


def _ldlt(tr: "Tracer", a: dict, F) -> None:
    A, M = a["A"], a["M"]
    tr.pencils.add((_digest(A), None if M is None else _digest(M),
                    float(a["sigma"])))
    tr.counts["sparsela.ldlt.ndof_sum"] += A.n
    L = F.L
    tr.counts["sparsela.ldlt.factor_nnz"] += (
        L.nnz if hasattr(L, "nnz") else int((L != 0).sum()))


def _eigs_smallest(tr: "Tracer", a: dict, result) -> None:
    tr.counts["sparsela.eigs_smallest.pairs"] += len(result.values)


def _compute_bounds(tr: "Tracer", a: dict, result) -> None:
    tr.counts["spectral.compute_bounds.indices"] += len(result)


def _mark_half_max(tr: "Tracer", a: dict, result) -> None:
    tr.marked["estimator"].append((len(result), len(a["eta"].values)))


def _refine_bisection(tr: "Tracer", a: dict, result) -> None:
    marked = {int(t) for t in a["marked"]}
    tr.marked["mesh.refine_bisection"].append((len(marked),
                                               a["m"].n_triangles))


def _mesh_init(tr: "Tracer", a: dict, result) -> None:
    tr.counts["mesh.triangles_built"] += a["self"].n_triangles


def _run_gmr(tr: "Tracer", a: dict, report) -> None:
    tr.counts["certify.iterations"] += len(report.iterations)
    tr.counts["certify.ndof_sum"] += sum(r.ndof for r in report.iterations)


HOOKS = {
    "sparsela.ldlt": _ldlt,
    "sparsela.eigs_smallest": _eigs_smallest,
    "spectral.compute_bounds": _compute_bounds,
    "estimator.mark_half_max": _mark_half_max,
    "mesh.refine_bisection": _refine_bisection,
    "mesh.Mesh": _mesh_init,
    "certify.run_gmr": _run_gmr,
}


class Tracer:
    """Spans and counts of one traced CLI invocation."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.pencils: set = set()       # distinct (A, M, sigma) factorized
        self.marked: dict[str, list[tuple[int, int]]] = {
            "estimator": [], "mesh.refine_bisection": []}
        self._stack: list[int] = []
        self._hidden = 0.0              # bookkeeping time, off the clock

    def _clock(self) -> float:
        return perf_counter() - self._hidden

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self._clock(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self._clock()
            if hook is not None:
                t0 = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                self._hidden += perf_counter() - t0
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap helmqo's public functions for the duration of the block."""
        import helmqo    # noqa: F401  (loads every layer module)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"helmqo.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                         obj))
        restore = []
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "helmqo" or n.startswith("helmqo.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    restore.append((mod, attr, obj))
        mesh_cls = sys.modules["helmqo.mesh"].Mesh
        init = mesh_cls.__init__
        mesh_cls.__init__ = self._wrap("mesh.Mesh", init)
        restore.append((mesh_cls, "__init__", init))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    def metrics(self) -> tuple[dict, dict]:
        """(timings in seconds, exact counts) of this invocation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
            total_s[name] += end - start
            calls[name] += 1
        times = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        for name in ("sparsela.ldlt", "sparsela.eigs_smallest",
                     "spaces.l2_error", "spaces.assemble_load"):
            times[f"{name}.self_s"] = self_s[name]
        for name in ("spectral.eigen_ladder", "spectral.compute_bounds"):
            times[f"{name}.total_s"] = total_s[name]

        counts = {f"{name}.calls": calls[name] for name in (
            "sparsela.ldlt", "sparsela.count_below", "sparsela.solve",
            "spaces.assemble_stiffness", "spaces.assemble_mass",
            "spaces.build_space", "mesh.Mesh")}
        for name in ("sparsela.ldlt.ndof_sum", "sparsela.ldlt.factor_nnz",
                     "sparsela.eigs_smallest.pairs",
                     "spectral.compute_bounds.indices",
                     "mesh.triangles_built", "certify.iterations",
                     "certify.ndof_sum"):
            counts[name] = self.counts[name]
        n_ldlt = calls["sparsela.ldlt"]
        counts["sparsela.ldlt.unique_ratio"] = (
            len(self.pencils) / n_ldlt if n_ldlt else 0.0)
        for name, pairs in self.marked.items():
            total = sum(t for _, t in pairs)
            counts[f"{name}.marked_fraction"] = (
                sum(m for m, _ in pairs) / total if total else 0.0)
        return times, counts

    def marked_per_call(self) -> dict[str, list[float]]:
        return {name: [round(m / t, 4) for m, t in pairs]
                for name, pairs in self.marked.items()}

    def write_spans(self, fh, invocation: int) -> None:
        """One JSON line per span; spans of one invocation share its id."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"invocation": invocation, "span": i,
                                 "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")

