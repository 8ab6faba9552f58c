"""Spans around the package's layer entry points, recorded from outside.

A Tracer rebinds each target function wherever a module of the package looks
it up (``blank.build_arrangement``, ``curves.segment_hits``, ...), so calls
between layers nest.  Each span adds to its function's call count, total
time, self time (its duration minus the part its child spans cover) and
failure count.  Hooks turn a call's arguments and result into work counts.
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from liouville_disk import blank

PACKAGE = "liouville_disk"

# layer entry points, as module.function or module.Class.method
TARGETS = (
    # topology
    "curves.self_intersections",
    "curves.rotation_index",
    "_kernels.segment_hits",
    "_kernels.winding_batch",
    "arrangement.build_arrangement",
    "blank.blank_word",
    "blank.contract",
    "blank.seifert_decompose",
    "blank.extendability_check",
    # singular-disk
    "line.integrate_exp_singular",
    "line.transfer_equation",
    "disk.analytic_completion",
    "disk.curvature_mass",
    "disk.boundary_polyline",
    "spectral.eval_modes",
    # quant-ladder
    "quant.concentration_scan",
    "quant.Bubble.disk_map",
    "quant.lambda_audit",
    "disk.build_phi",
    "disk.make_disk_map",
    "disk.mobius_recenter",
    "disk.conformal_distance",
    "mesh.build_polar_mesh",
    "mesh.shortest_path_distance",
    "_kernels.dijkstra",
    "spectral.analyze",
)


def _exhaustive(args, result):
    # the fallback runs when greedy contraction is stuck on a short word
    word = args[0]
    return result.order == "exhaustive" or (
        not result.contracted and len(word) <= blank.EXHAUSTIVE_LIMIT
    )


def _scan_samples(args, kwargs):
    # members x n; n defaults as in concentration_scan
    n = kwargs.get("n", args[3] if len(args) > 3 else 1 << 16)
    return len(args[0]) * n


# target -> function(args, kwargs, result) -> {count name: increment}
HOOKS = {
    "curves.self_intersections": lambda a, kw, r: {"curves.vertices": a[0].m,
                                                   "curves.crossings": len(r)},
    "arrangement.build_arrangement": lambda a, kw, r: {"arrangement.bounded_faces":
                                                       len(r.bounded_faces)},
    "blank.blank_word": lambda a, kw, r: {"blank.word_letters": len(r.word)},
    "blank.contract": lambda a, kw, r: {"blank.contract.exhaustive": int(_exhaustive(a, r))},
    "quant.concentration_scan": lambda a, kw, r: {"quant.samples": _scan_samples(a, kw)},
    "disk.make_disk_map": lambda a, kw, r: {"disk.series_order": r.order},
    "mesh.shortest_path_distance": lambda a, kw, r: {"mesh.nodes": a[0].n_nodes},
    # an FFT of n points per call, computed from the array size
    "spectral.analyze": lambda a, kw, r: {"spectral.fft_points": r.n},
}

COUNTS = (
    "curves.vertices",
    "curves.crossings",
    "arrangement.bounded_faces",
    "blank.word_letters",
    "quant.samples",
    "disk.series_order",
    "mesh.nodes",
    "spectral.fft_points",
)


class Tracer:
    def __init__(self):
        self.stats = {t: [0, 0.0, 0.0, 0] for t in TARGETS}  # calls, total, self, failed
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts["blank.contract.exhaustive"] = 0
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._restore = []

    def _wrap(self, target, fn):
        st = self.stats[target]
        hook = HOOKS.get(target)
        child = self._child

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - inner
            if hook is not None:
                for name, inc in hook(args, kwargs, result).items():
                    self.counts[name] += inc
            return result

        return span

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            fn = getattr(owner, path[-1])
            wrapped = self._wrap(target, fn)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, attr, wrapped)
        return self

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def metrics(self, jobs):
        """Per-layer metrics, normalised per job so runs of different length
        compare."""
        out = {}
        for target, (calls, total, self_s, failed) in self.stats.items():
            name = target.lstrip("_")  # metric names start with a letter
            out[f"{name}.calls"] = (calls / jobs, "1/job")
            out[f"{name}.total_s"] = (total / jobs, "s/job")
            out[f"{name}.self_s"] = (self_s / jobs, "s/job")
            out[f"{name}.failed"] = (failed / jobs, "1/job")
        for name in COUNTS:
            unit = "computed-pt/job" if name == "spectral.fft_points" else "1/job"
            out[name] = (self.counts[name] / jobs, unit)
        contracts = self.stats["blank.contract"][0]
        out["blank.contract.exhaustive_share"] = (
            self.counts["blank.contract.exhaustive"] / contracts if contracts else 0.0, "1")
        return out
