"""Span timers installed from outside the package for the traced pass.

`Tracer.install()` replaces every namespace binding of the functions in
`INSTRUMENTED` (module globals, the package namespace and class attributes)
with a timing wrapper, and `Tracer.remove()` puts the originals back.
Nothing under `src/` changes.  Spans are held in memory as
`(id, parent, question, name, start, end, size)` tuples and written out by
the caller after the pass.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute path, span name, size of the call or None)
# The functions are the public entry points of each layer named in the
# benchmark; helpers called per Bell string (check_bell_string and friends)
# are left out because a span per string would swamp the pass being traced.
INSTRUMENTED = [
    ("belldistill.states", "Ket.__post_init__", "states.ket_init", None),
    ("belldistill.states", "DensityOperator.__post_init__", "states.density_init", None),
    ("belldistill.states", "apply_local", "states.apply_local", None),
    ("belldistill.states", "reorder", "states.reorder", None),
    ("belldistill.states", "partial_trace", "states.partial_trace", None),
    ("belldistill.states", "dm_from_ensemble", "states.dm_from_ensemble", None),
    ("belldistill.entropies", "herm_eig", "entropies.herm_eig", None),
    ("belldistill.entropies", "relative_entropy", "entropies.relative_entropy", None),
    ("belldistill.entropies", "von_neumann_entropy", "entropies.von_neumann_entropy", None),
    ("belldistill.entropies", "trace_distance", "entropies.trace_distance", None),
    ("numpy.linalg", "eigh", "linalg.eig", lambda a: len(a[0])),
    ("numpy.linalg", "eigvalsh", "linalg.eig", lambda a: len(a[0])),
    ("belldistill.bell", "BellDiagonalState.__post_init__", "bell.state_init",
     lambda a: len(a[0].weights)),
    ("belldistill.bell", "BellDiagonalState.tensor", "bell.tensor", None),
    ("belldistill.bell", "BellDiagonalState.to_json", "bell.json", None),
    ("belldistill.bell", "BellDiagonalState.from_json", "bell.json", None),
    ("belldistill.bell", "to_dense", "bell.to_dense", None),
    ("belldistill.bell", "rho2_power", "bell.rho2_power", None),
    ("belldistill.bell", "bell_diagonal_kl", "bell.kl", None),
    ("belldistill.measures", "er_bound_even", "measures.divergence", None),
    ("belldistill.measures", "er_bound_pair", "measures.divergence", None),
    ("belldistill.measures", "er_bound_odd_doubled", "measures.divergence", None),
    ("belldistill.measures", "ppt_check", "measures.ppt", None),
    ("belldistill.measures", "log_negativity", "measures.ppt", None),
    ("belldistill.measures", "er_search", "measures.er_search", None),
    ("belldistill.measures", "sample_pairwise_separable", "measures.pairwise_separable", None),
    ("belldistill.locc", "run_shot", "locc.shot", None),
    ("belldistill.locc", "measure_local", "locc.measure_local", None),
    ("belldistill.locc", "discriminate_two_copies", "locc.discriminate", None),
    ("belldistill.locc", "distill_exact_branches", "locc.exact_branches", None),
    ("belldistill.locc", "DistillationReport.to_csv", "locc.csv", None),
    ("numpy.random", "default_rng", "locc.rng_init", None),
    ("belldistill.permutations", "permutation_table", "permutations.table", None),
    ("belldistill.permutations", "permutation_action", "permutations.action", None),
]

# The divergence bounds take a `method` argument; their spans are split by it.
_METHOD_SPLIT = {"measures.divergence"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.question: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, size=None):
        self._stack.pop()
        self.spans.append((sid, parent, self.question, name, start, end, size))

    def run_question(self, index: int, name: str, fn):
        """Run one question as the root span of its own question id."""

        self.question = index
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, name, start, time.perf_counter())
            self.question = None

    def _wrap(self, fn, name, size_of):
        tracer = self
        split = None
        if name in _METHOD_SPLIT:
            sig = inspect.signature(fn)

            def split(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return f"{name}_{bound.arguments['method']}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, parent, split(args, kwargs) if split else name,
                              start, end, size_of(args) if size_of else None)

        return wrapper

    # --- installing and removing ----------------------------------------

    def install(self) -> None:
        targets = [m for n, m in sys.modules.items()
                   if n == "belldistill" or n.startswith("belldistill.")]
        for modname, path, name, size_of in INSTRUMENTED:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if cls_path else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, size_of))
                self._set(owner, attr, new, raw)
                continue
            new = self._wrap(raw, name, size_of)
            self._set(owner, attr, new, raw)
            if not cls_path:
                for mod in targets:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, new, raw)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, first inclusive
    duration, largest size, and the sums of size and size cubed."""

    child = defaultdict(float)
    for sid, parent, _q, _name, start, end, _size in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for sid, _parent, _q, name, start, end, size in sorted(spans, key=lambda s: s[4]):
        agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                    "first_s": end - start, "max_size": 0,
                                    "size_sum": 0, "size_cubed_sum": 0})
        agg["calls"] += 1
        agg["incl_s"] += end - start
        agg["self_s"] += end - start - child[sid]
        if size is not None:
            agg["max_size"] = max(agg["max_size"], size)
            agg["size_sum"] += size
            agg["size_cubed_sum"] += size ** 3
    return out
