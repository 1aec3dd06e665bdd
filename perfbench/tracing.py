"""In-memory tracing of the hfs package from outside it.

``Tracer.install`` replaces public functions of the package with wrappers,
re-binding the name in every ``hfs`` module that holds the original object
(``hfs.steady.generator_matrix`` and ``hfs.dynamics.generator_matrix`` are
the same function imported twice).  A span wrapper records
``(name, start, end, parent)``; a count wrapper only counts, for functions
called too often for spans.  ``uninstall`` restores every original binding.

A function that no longer exists is listed in ``absent`` and skipped, so a
refactor that removes one only drops the metrics built on it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (module, function, kind, name).  kind "span" records a span named ``name``;
# kind "count" counts calls under "<name>.<importing module>".
TARGETS = (
    ("hfs.config", "parse_config", "span", "config.parse_config"),
    ("hfs.model", "rhs_verbatim", "count", "model.rhs_calls"),
    ("hfs.params", "effective_rabi", "count", "params.effective_rabi_calls"),
    ("hfs.steady", "generator_matrix", "span", "steady.generator_matrix"),
    ("hfs.steady", "solve_linear_steady", "span", "steady.solve_linear_steady"),
    ("hfs.steady", "residual_norm", "span", "steady.residual_norm"),
    ("hfs.steady", "solve_selfconsistent", "span", "steady.solve_selfconsistent"),
    ("hfs.optics", "susceptibility", "span", "optics.susceptibility"),
    ("hfs.optics", "refractive_index", "span", "optics.refractive_index"),
    ("hfs.optics", "group_index_profile", "span", "optics.group_index_profile"),
    ("hfs.optics", "classify", "span", "optics.classify"),
    ("hfs.sweep", "run_sweep", "span", "sweep.run_sweep"),
    ("hfs.sweep", "write_csv", "span", "sweep.write_csv"),
    ("hfs.sweep", "write_json", "span", "sweep.write_json"),
    ("hfs.sweep", "read_csv", "span", "sweep.read_csv"),
    ("hfs.sweep", "summarize", "span", "sweep.summarize"),
    ("hfs.identities", "check_mirror_relations", "span", "identities.mirror"),
    ("hfs.identities", "check_evenness", "span", "identities.evenness"),
    ("hfs.identities", "check_raman_symmetric_form", "span",
     "identities.raman_symmetric"),
    ("hfs.identities", "check_raman_steady_table", "span",
     "identities.raman_table"),
    ("hfs.identities", "two_level_oracle_check", "span",
     "identities.two_level"),
    ("hfs.dynamics", "relax_to_steady", "span", "dynamics.relax_to_steady"),
    ("hfs.dynamics", "evolve", "span", "dynamics.evolve"),
)
# spans that also keep each call's arguments and result
KEEP_RESULTS = {"steady.solve_selfconsistent", "dynamics.relax_to_steady"}


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index]
        self.counts = Counter()
        self.results = {}            # span name -> [(args, kwargs, result)]
        self.absent = []             # target names whose function is gone
        self._stack = []
        self._patched = []           # (module object, attribute, original)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        results = (self.results.setdefault(name, [])
                   if name in KEEP_RESULTS else None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if results is not None:
                results.append((args, kwargs, out))
            return out
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target; KEEP_RESULTS spans also keep their calls."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hfs" or n.startswith("hfs."))]
        for mod_name, attr, kind, name in TARGETS:
            home = sys.modules.get(mod_name)
            orig = getattr(home, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            shared = (self._span_wrapper(name, orig)
                      if kind == "span" else None)
            for mod in modules:
                if getattr(mod, attr, None) is not orig:
                    continue
                wrapper = shared or self._count_wrapper(
                    f"{name}.{mod.__name__.rpartition('.')[2]}", orig)
                self._patched.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def durations(self):
        """Per-span duration and self time (duration minus child spans)."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        self_t = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                self_t[s[3]] -= dur[i]
        return dur, self_t

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        dur, self_t = self.durations()
        out = {}
        for i, s in enumerate(self.spans):
            n, tot, own = out.get(s[0], (0, 0.0, 0.0))
            out[s[0]] = (n + 1, tot + dur[i], own + self_t[i])
        return out
