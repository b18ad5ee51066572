"""Span tracing of sct from outside the package.

`Tracer.install` wraps the public functions of each layer (the modules
elliptic, paths, fluctuations, thermo and cli) and patches every place
they are reachable from: the defining module and each module that did
`from .x import f`.  `Patcher.restore` puts the originals back.

Each span records its name, start, end, parent span and request id in
flat arrays kept in memory; `Tracer.save` writes them out.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Below this m1 = 1 - k^2 the elliptic kernel takes its exact-m1 branch.
NEAR_ONE_M1 = 1e-12

# (span name, module, attribute).  Several attributes may share a span
# name: the two closed-form determinants, for instance.
TARGETS = (
    ("elliptic.sn_cn_dn", "sct.elliptic", "jacobi_sn_cn_dn"),
    ("elliptic.epsilon", "sct.elliptic", "jacobi_epsilon"),
    ("elliptic.complete_K", "sct.elliptic", "complete_K"),
    ("paths.path_from_qt", "sct.paths", "quartic_path_from_qt"),
    ("paths.q_theta_max", "sct.paths", "q_theta_max"),
    ("paths.action", "sct.paths", "quartic_action"),
    ("paths.canonical_pair", "sct.paths", "canonical_longitudinal"),
    ("paths.canonical_pair", "sct.paths", "canonical_transverse"),
    ("fluctuations.det_closed", "sct.fluctuations", "_det_longitudinal_closed"),
    ("fluctuations.det_closed", "sct.fluctuations", "_det_transverse_closed"),
    ("fluctuations.det_dual_route", "sct.fluctuations", "det_longitudinal"),
    ("fluctuations.det_dual_route", "sct.fluctuations", "det_transverse"),
    ("fluctuations.flow_matrices", "sct.fluctuations", "flow_matrices"),
    ("fluctuations.det_general", "sct.fluctuations", "det_general"),
    ("fluctuations.green_general", "sct.fluctuations", "green_general"),
    ("fluctuations.green_table_general", "sct.fluctuations", "green_table_general"),
    ("fluctuations.wick_moment", "sct.fluctuations", "wick_moment"),
    ("thermo.z2_quartic", "sct.thermo", "z2_quartic"),
    ("thermo.specific_heat", "sct.thermo", "specific_heat"),
    ("thermo.z_classical", "sct.thermo", "z_classical"),
    ("thermo.ln_z_classical", "sct.thermo", "ln_z_classical"),
    ("thermo.ln_z_harmonic", "sct.thermo", "ln_z_harmonic"),
    ("thermo.wkb_levels", "sct.thermo", "wkb_levels"),
    ("thermo.z_wkb", "sct.thermo", "z_wkb"),
    ("cli.lnz_function", "sct.cli", "lnz_function"),
    ("cli.run", "sct.cli", "run"),
    ("cli.compare", "sct.cli", "compare"),
)

LAYERS = ("elliptic", "paths", "fluctuations", "thermo", "cli")


class Patcher:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _sct_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sct" or name.startswith("sct."))]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request = -1
        self.counts = Counter()
        self.n_max = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None, post=None):
        """`fn` recording one span per call.  `probe(args, kwargs)` sees the
        arguments; `post(result)` may replace the result."""
        nid = self._id(name)
        names, parents, requests = self.name, self.parent, self.request_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return result if post is None else post(result)

        return traced

    # -- probes and result wrappers ------------------------------------------

    def _near_one(self, args, kwargs):
        k = args[1] if len(args) > 1 else kwargs["k"]
        m1 = args[2] if len(args) > 2 else kwargs.get("m1")
        if m1 is None:
            m1 = (1.0 - k) * (1.0 + k)
        if m1 < NEAR_ONE_M1:
            self.counts["elliptic.sn_cn_dn.near_one"] += 1

    def _wkb_size(self, args, kwargs):
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        self.n_max = max(self.n_max, n_max)

    def _traced_pair(self, pair):
        from sct.paths import CanonicalPair
        w = functools.partial(self.wrap, "paths.pair_eval")
        return CanonicalPair(w(pair.fa), w(pair.fb), w(pair.fa_dot),
                             w(pair.fb_dot))

    def _counted_lnz(self, lnz):
        def counted(theta):
            self.counts["cli.lnz_evals"] += 1
            return lnz(theta)
        return self.wrap("cli.lnz", counted)

    # -- installation ----------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        """Wrap every target and patch each module attribute bound to it."""
        modules = _sct_modules()
        extras = {
            "jacobi_sn_cn_dn": dict(probe=self._near_one),
            "wkb_levels": dict(probe=self._wkb_size),
            "canonical_longitudinal": dict(post=self._traced_pair),
            "canonical_transverse": dict(post=self._traced_pair),
            "lnz_function": dict(post=self._counted_lnz),
        }
        for span, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span, original, **extras.get(attr, {}))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patcher.set(module, name, traced)
        from sct.paths import QuarticPath
        patcher.set(QuarticPath, "position",
                    self.wrap("paths.position", QuarticPath.position))

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        import numpy as np
        # copies: a buffer view would stop the arrays from growing
        return (np.array(self.name, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        import numpy as np
        name, parent, start, end = self.arrays()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=duration.size)
        return duration - covered

    def totals(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}."""
        import numpy as np
        name, _, start, end = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=end - start, minlength=n)
        own = np.bincount(name, weights=self.self_times(), minlength=n)
        return {s: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, s in enumerate(self.names)}

    def calls_within(self, inner: str, outer: str) -> int:
        """Spans named `inner` that run inside a span named `outer`."""
        import numpy as np
        if inner not in self._ids or outer not in self._ids:
            return 0
        name, _, start, end = self.arrays()
        o = name == self._ids[outer]
        if not o.any():
            return 0
        o_start, o_end = start[o], end[o]
        order = np.argsort(o_start)
        o_start, o_end = o_start[order], o_end[order]
        i_start = start[name == self._ids[inner]]
        k = np.searchsorted(o_start, i_start, side="right") - 1
        inside = (k >= 0) & (i_start <= o_end[np.maximum(k, 0)])
        return int(inside.sum())

    def save(self, path: Path) -> None:
        """Write the spans (and the name table and counts beside them)."""
        import numpy as np
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 request=np.array(self.request_id, dtype=np.int64))
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(dict(names=self.names, counts=dict(self.counts),
                           wkb_n_max=self.n_max), fh, indent=1)
