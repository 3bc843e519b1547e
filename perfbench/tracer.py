"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each layer from the outside:
every module-level binding of a listed function object is replaced by a
wrapper that records one span (name, start, end, parent span, run id). The
package imports by name (``from .models import time_separation``), so a
function is re-bound in every ``lorentz_synth`` module that holds it, not
only where it is defined. Spans stay in memory until ``dump`` writes them;
``summarize`` derives self time, call counts and distinct-argument counts
from the dumped spans.

The package itself is not changed: nothing here runs unless the benchmark
asks for a traced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "lorentz_synth"

# layer (package module) -> public functions traced in it
LAYERS = {
    "models": ("time_separation", "maximizing_path", "lorentz_distance_field",
               "timelike_diameter", "region_measure"),
    "transport": ("separation_matrix", "lq_distance", "is_timelike_q_dualizable",
                  "dynamical_coupling", "eval_pushforward"),
    "comparison": ("voronoi_cell_masses", "check_tcd_semiconvexity"),
    "distortion": ("tau_coeff", "sigma_coeff", "generalized_sine", "defect_bound"),
    "lipschitz_grid": ("mollify", "cone_narrowed", "ricci", "bakry_emery",
                       "default_cone_samples", "timelike_lower_bound_fn",
                       "lp_deficit_curve"),
    "cli": ("run",),
}

# span name -> (module that defines it, attribute) for foreign functions
# called from a layer
FOREIGN = {"transport.linprog": ("scipy.optimize", "linprog")}


def _source_event(args, kwargs):
    """Source event of ``time_separation(model, x, y, ...)`` as coordinates."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return [float(c) for c in getattr(x, "coords", x)]


def _profile(args, kwargs):
    """Cache identity of ``generalized_sine(profile)``: the profile's hash."""
    return hash(args[0] if args else kwargs["profile"])


# span name -> argument key whose distinct values are counted
KEYS = {"models.time_separation": _source_event,
        "distortion.generalized_sine": _profile}


def span_names():
    """Every span name the tracer can record, in a stable order."""
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + list(FOREIGN)


class Tracer:
    """Records spans around the traced functions of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = span_names()
        self.spans = []
        self._stack = []

    def install(self) -> None:
        """Wrap every traced function that exists in the loaded package."""
        wrappers = {}    # id of a traced function -> its wrapper
        for idx, name in enumerate(self.names):
            if name in FOREIGN:
                module, attr = FOREIGN[name]
            else:
                layer, attr = name.split(".", 1)
                module = f"{PACKAGE}.{layer}"
            fn = getattr(sys.modules.get(module), attr, None)
            if callable(fn):
                wrappers[id(fn)] = self._wrap(idx, fn, KEYS.get(name))
        foreign = {home for home, _ in FOREIGN.values()}
        homes = [m for n, m in list(sys.modules.items())
                 if m is not None and (n.split(".")[0] == PACKAGE or n in foreign)]
        for module in homes:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, name_idx: int, fn, key_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                key = key_fn(args, kwargs) if key_fn is not None else None
                spans[idx] = (name_idx, start, end, parent, key)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "spans": self.spans}, fh, separators=(",", ":"))


def summarize(doc: dict) -> dict:
    """Per span name: self seconds, calls and distinct argument keys.

    A span's self time is its duration minus the durations of its direct
    child spans; spans nest strictly because the program is single-threaded.
    """
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: {"self_s": 0.0, "calls": 0, "keys": set()} for name in names}
    for i, (name, start, end, _, key) in enumerate(spans):
        row = out[names[name]]
        row["self_s"] += (end - start) - covered[i]
        row["calls"] += 1
        if key is not None:
            row["keys"].add(json.dumps(key))
    return out
