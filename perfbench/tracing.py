"""Per-layer tracing of kwcflow from outside the package.

While installed, a :class:`Tracer` replaces the names one layer calls in
another (``evolution.linear_resolvent``, ``elliptic.cg``, the ``Grid``
methods, ...) by wrappers that record a span ``[name, start, end, parent]``
in memory and count the work each call did.  Uninstalling puts every
original back.  Nothing under ``src/`` is changed; the wrapped calls return
exactly what the originals return.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from kwcflow import elliptic, evolution
from kwcflow.elliptic import SolverError
from kwcflow.evolution import Forcings
from kwcflow.grid import Grid
from workloads import clock

STENCILS = ("grad", "div", "laplacian", "face_to_cell", "cell_to_face", "grad_cell")
NORMS = ("inner", "inner_faces", "norm_h", "norm_v", "norm_h2")


def cg_bytes(A, iterations: int) -> int:
    """Computed memory traffic of Jacobi-preconditioned CG on a CSR matrix.

    Per iteration: one SpMV (matrix arrays plus source and result vectors),
    the diagonal preconditioner (three vectors) and the vector updates of
    scipy's CG (two dot products, three axpys, one residual norm: fourteen
    vector reads or writes).  Cache reuse is ignored.
    """
    n = A.shape[0]
    matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return iterations * (matrix + 8 * n * (2 + 3 + 14))


def _count_cg(tracer, cg):
    def counted(A, b, *args, callback=None, **kwargs):
        n = [0]

        def count(xk):
            n[0] += 1
            if callback is not None:
                callback(xk)

        out = cg(A, b, *args, callback=count, **kwargs)
        tracer.add("cg.calls")
        tracer.add("cg.iterations", n[0])
        tracer.add("cg.bytes", cg_bytes(A, n[0]))
        return out
    return counted


def _count_eta(tracer, solve):
    def counted(*args, **kwargs):
        w, report = solve(*args, **kwargs)
        tracer.add("eta.calls")
        tracer.add("eta.cg_iterations", report.iterations)
        return w, report
    return counted


def _count_theta(tracer, solve):
    def counted(*args, **kwargs):
        tracer.add("theta.calls")
        try:
            w, report = solve(*args, **kwargs)
        except SolverError as exc:
            # The solver raises only after the lagged fallback also failed.
            tracer.add("theta.failures")
            tracer.add("theta.fallbacks")
            tracer.add("theta.cg_iterations", exc.report.inner_iterations)
            raise
        tracer.add("theta.cg_iterations", report.inner_iterations)
        tracer.add("theta.fallbacks", report.method == "lagged")
        return w, report
    return counted


def _count_newton(tracer, hess):
    # The singular solver evaluates the Hessian once per Newton iteration.
    def counted(*args, **kwargs):
        tracer.add("theta.newton_iterations")
        return hess(*args, **kwargs)
    return counted


# (owner, attribute, span name, counting wrapper or None)
LAYER_CALLS = (
    (evolution, "linear_resolvent", "elliptic.eta_solve", _count_eta),
    (evolution, "singular_resolvent", "elliptic.theta_solve", _count_theta),
    (elliptic, "cg", "elliptic.cg", _count_cg),
    (elliptic, "gamma_eps", "model.kernels", None),
    (elliptic, "grad_gamma_eps", "model.kernels", None),
    (elliptic, "hess_gamma_eps", "model.kernels", _count_newton),
    (evolution, "gamma_eps", "model.kernels", None),
    (evolution, "grad_gamma_eps", "model.kernels", None),
    (evolution, "kwc_energy", "model.kwc_energy", None),
    (Forcings, "u", "evolution.forcing", None),
    (Forcings, "v", "evolution.forcing", None),
    (Grid, "check_scalar", "grid.check_scalar", None),
    *((Grid, name, "grid.stencil", None) for name in STENCILS),
    *((Grid, name, "grid.norms", None) for name in NORMS),
)


class Tracer:
    """Spans and counters recorded at the layer boundaries of kwcflow."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = clock()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def add(self, counter: str, value=1) -> None:
        self.counts[counter] += value

    def _traced(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in ``LAYER_CALLS`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in LAYER_CALLS:
                original = vars(owner)[attr]
                inner = counter(self, original) if counter else original
                saved.append((owner, attr, original))
                setattr(owner, attr, self._traced(name, inner))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# -- span arithmetic ------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _ancestor_names(spans) -> list[frozenset]:
    # Parents open before their children, so one forward pass suffices.
    chains: list[frozenset] = []
    cache: dict = {}
    for name, _, _, parent in spans:
        if parent < 0:
            chains.append(frozenset())
        else:
            key = (chains[parent], spans[parent][0])
            if key not in cache:
                cache[key] = key[0] | {key[1]}
            chains.append(cache[key])
    return chains


def layer_totals(spans, within: str) -> dict:
    """Per span name, over ``within`` spans and the spans inside them: calls,
    the time of the outermost spans of that name, and the summed self time."""
    chains = _ancestor_names(spans)
    selfs = self_times(spans)
    totals: dict = {}
    for (name, start, end, _), chain, own in zip(spans, chains, selfs):
        if name != within and within not in chain:
            continue
        t = totals.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own
        if name not in chain:
            t["inclusive_s"] += end - start
    return totals


def exclusive_time(spans, name: str, minus) -> float:
    """Total time of the outermost ``name`` spans less the outermost spans of
    the ``minus`` names nested anywhere inside them."""
    chains = _ancestor_names(spans)
    minus = frozenset(minus)
    total = 0.0
    for (n, start, end, _), chain in zip(spans, chains):
        if n == name and name not in chain:
            total += end - start
        elif n in minus and name in chain and not (chain & minus):
            total -= end - start
    return total
