"""Outside-in spans around calls into dunklsim's layers.

`Tracer.install` rebinds the layer functions that `dunklsim.cli` and
`dunklsim.mc` imported by name, so every call the CLI makes into a layer
passes through a wrapper that records a span: name, layer, start, end,
parent span and run id, plus the work counts that can be read off the
call's arguments and result.  Spans stay in memory; `records` hands
them out at the end.  A span's parent is its index in the recorder.
Nothing inside the package is changed; calls a layer makes into its own
module are not seen, so a layer's self time includes them.

With one thread budget every call runs on the calling thread, so a plain
stack gives each span its parent.
"""
from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)


def _increment_counts(args, kwargs, out):
    return {"normals": int(out.size), "bytes": int(out.nbytes)}


def _coarsen_counts(args, kwargs, out):
    return {"bytes": int(np.asarray(args[0]).nbytes + out.nbytes)}


def _reduction_counts(args, kwargs, out):
    return {"bytes": int(sum(a.nbytes for a in args if isinstance(a, np.ndarray)))}


def _run_batch_counts(args, kwargs, out):
    m, cfg, inc = args[:3]
    paths = int(np.shape(inc)[0])
    # The engine takes its d=1 closed form for an exact run on one root.
    closed = (cfg.variant == "exact" and m.rs.dim == 1 and m.rs.n_roots == 1)
    state_bytes = (np.asarray(inc).nbytes + out.states.nbytes
                   + (0 if out.in_chamber is None else out.in_chamber.nbytes))
    return {"variant": "closed_form" if closed else cfg.variant,
            "path_steps": paths * cfg.n,
            "iterations": int(out.iterations.sum(dtype=np.int64)),
            "state_bytes": int(state_bytes)}


def _run_batch_with_iterations(fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        kwargs["record_iterations"] = True
        return fn(*args, **kwargs)
    return call


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.run = 0
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn, *args, counts=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        sp = Span(name, layer, 0.0, 0.0,
                  self._stack[-1] if self._stack else None, self.run)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            sp.counts = counts(args, kwargs, out)
        return out

    def _wrap(self, module, attr: str, layer: str, counts=None, adapt=None):
        fn = getattr(module, attr)
        inner = adapt(fn) if adapt else fn
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The adapted call (extra work for the counts) runs only when
            # tracing is on, so untraced experiments stay a true baseline.
            return self.span(name, layer, inner if self.enabled else fn,
                             *args, counts=counts, **kwargs)
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the CLI and the estimators call."""
        import dunklsim.cli as cli
        import dunklsim.mc as mc

        self._wrap(cli, "load_config", "config")
        for est in ("strong_error", "negative_moments", "chamber_exit",
                    "fit_order", "increment_scaling", "cir_mean_check"):
            self._wrap(cli, est, "mc")
        for mod in (cli, mc):
            self._wrap(mod, "batch_increments", "brownian", _increment_counts)
            self._wrap(mod, "run_batch", "scheme", _run_batch_counts,
                       _run_batch_with_iterations)
        self._wrap(mc, "coarsen", "brownian", _coarsen_counts)
        for red in ("pairwise_sum", "block_partials", "path_mean_se",
                    "mean_se_from_sums"):
            self._wrap(mc, red, "reductions", _reduction_counts)

    def records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    `spans` holds whole span trees, taken from a recorder's list starting
    at index `first` (one experiment's spans, say).
    """
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent - first] -= sp.end - sp.start
    return own
