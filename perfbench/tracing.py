"""Spans around hsdecomp's public functions and exact linear-algebra counters.

Everything is installed from the benchmark's side; the library is not
edited. A span records (name, start, end, parent span, item id) in memory;
self time is a span's duration minus the time its child spans cover.

``install_counters`` must run before ``hsdecomp`` is imported, so that a
``from numpy.linalg import eigh`` inside the library binds the counting
wrapper. Counters only count calls made while a library span is open, so
the benchmark's own oracles never add to them.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions wrapped in timed spans, by module (= layer).
SPANS = {
    "core": ("classify_hermitian",),
    "pencil": ("pencil_eigh", "pencil_extremes"),
    "superop": ("to_liouville", "reduce_terms", "selfadjoint_decompose", "classify_superop",
                "apply_superop"),
    "posdecomp": ("pd_decompose", "find_zeta_certificate", "zeta_check", "zeta_transform",
                  "two_sum_pd", "one_sum_positive", "counterexample_superop"),
    "forms": ("build_inner_product", "classify_form", "equivalence_constants", "eval_form"),
    "serialize": ("obj_to_operator", "operator_to_obj", "trace_to_obj", "canonical_digest"),
}
# Public functions whose calls are only counted (too frequent and too small to time).
COUNTED = {"core": ("fix_phase",)}

# Linear-algebra entry points counted, grouped into the reported kinds.
LINALG = {
    "eigh": "eigensolves", "eigvalsh": "eigensolves", "svd": "svds",
    "lstsq": "lstsq", "cholesky": "cholesky", "solve": "solve",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.calls: dict[str, int] = {}
        self.linalg: dict[str, int] = {}
        self.missing: list[str] = []
        self.item = None  # item id; spans and counts are recorded only while set
        self._stack: list[int] = []
        self._lib_depth = 0  # open spans around library functions

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            self._lib_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lib_depth -= 1
                self.close(idx)
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is not None:
                self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _linalg_counted(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._lib_depth:
                self.linalg[kind] = self.linalg.get(kind, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install_counters(self) -> None:
        """Wrap numpy.linalg (namespace and implementation module, so that
        internal calls such as norm -> svd count) and scipy.linalg."""
        import numpy.linalg

        targets = [numpy.linalg, sys.modules.get("numpy.linalg._linalg")]
        try:
            import scipy.linalg
            targets.append(scipy.linalg)
        except ImportError:
            pass
        for mod in filter(None, targets):
            for name, kind in LINALG.items():
                fn = getattr(mod, name, None)
                if fn is not None:
                    setattr(mod, name, self._linalg_counted(kind, fn))

    def install_spans(self, package) -> None:
        """Rebind each listed function wherever an hsdecomp module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "hsdecomp" or k.startswith("hsdecomp.")]
        for table, make in ((SPANS, self.span), (COUNTED, self.counted)):
            for layer, names in table.items():
                mod = sys.modules.get(f"{package.__name__}.{layer}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if fn is None:
                        self.missing.append(f"{layer}.{name}")
                        continue
                    wrapped = make(f"{layer}.{name}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, wrapped)

    def summary(self, n_items: int, n_inputs: int) -> dict:
        """Per span name [inclusive s, self s, count], split into the items
        and the set-up parse, plus the call and linear-algebra counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_item: dict = {}
        setup: dict = {}
        for i, (name, start, end, _, item) in enumerate(self.spans):
            acc = (setup if item == "setup" else per_item).setdefault(name, [0.0, 0.0, 0])
            acc[0] += end - start
            acc[1] += end - start - child[i]
            acc[2] += 1
        return {"items": n_items, "inputs": n_inputs, "spans": per_item, "setup_spans": setup,
                "calls": self.calls, "linalg": self.linalg, "missing": self.missing}
