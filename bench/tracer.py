"""In-memory spans around the calls into lshapearc's public functions.

lshapearc.metrics and lshapearc.cli import the nodal, conformal, family
and scipy functions by name, so a wrapper has to replace the name in
every module namespace that holds it.  `Tracer.install` does that and
`Tracer.uninstall` puts the originals back, so untraced rounds run the
unmodified program.

A span is (name, parent index, start, end, attributes); the attributes
carry the per-call counts (cells, evaluations) used by `layer_metrics`.
"""

import time

import numpy as np

_FAMILIES = ("build_raw", "build_adjusted")
_NODAL = ("build_derivative_table", "lebesgue_function_grid", "lebesgue_function", "log_abs_omega")
_METRICS = (
    "lebesgue_constant",
    "level_minmax",
    "muckenhoupt_constant",
    "choose_ratio_index",
    "mz_ratio",
    "mz_ratio_worst",
    "lower_bound_witness",
    "fit_growth",
)
_SCIPY = ("quad", "minimize_scalar")  # wrapped in lshapearc.metrics only
_SCAN_CALLERS = ("metrics.level_minmax", "metrics.muckenhoupt_constant", "metrics.choose_ratio_index")


def _attrs_for(name, args, result):
    if name in ("nodal.log_abs_omega", "nodal.lebesgue_function_grid", "nodal.lebesgue_function"):
        nodes = args[0]
        pts = getattr(nodes, "points", nodes)
        z = args[2] if name != "nodal.log_abs_omega" else args[1]
        size = int(np.size(z))
        return {"cells": len(pts) * size, "points": size, "scan": size == 64 * len(pts)}
    if name == "nodal.build_derivative_table":
        m = len(args[0].points)
        return {"cells": m * m}
    if name == "metrics.minimize_scalar":
        return {"evals": int(result.nfev)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _attrs_for(name, args, result)
            return result

        if name == "metrics.quad":
            def traced_quad(func, *args, **kwargs):
                count = [0]

                def counted(x, *a):
                    count[0] += 1
                    return func(x, *a)

                idx = len(spans)
                result = traced(counted, *args, **kwargs)
                spans[idx][4] = {"evals": count[0]}
                return result

            return traced_quad
        return traced

    def install(self, lshapearc_modules):
        """Replaces every public function above in every given module namespace."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in lshapearc_modules}
        targets = {}
        for short, names in (("families", _FAMILIES), ("nodal", _NODAL), ("metrics", _METRICS),
                             ("conformal", ("dist_to_level",)), ("cli", ("main",))):
            for attr in names:
                fn = getattr(mods[short], attr)
                targets[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in lshapearc_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)][1])
        metrics = mods["metrics"]
        for attr in _SCIPY:
            fn = getattr(metrics, attr)
            self._patched.append((metrics, attr, fn))
            setattr(metrics, attr, self._wrap(f"metrics.{attr}", fn))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def layer_metrics(spans):
    """Per-layer totals of one traced round; every `_s` value is in seconds."""
    n = len(spans)
    child = [0.0] * n
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def dur(i):
        return spans[i][3] - spans[i][2]

    def self_time(i):
        return dur(i) - child[i]

    def parent_name(i):
        p = spans[i][1]
        return spans[p][0] if p >= 0 else None

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(*names):
        return [i for nm in names for i in by_name.get(nm, [])]

    def attr_sum(idx, key):
        return sum(spans[i][4][key] for i in idx)

    def rate(cells, secs):
        return cells / secs if secs > 0 else 0.0

    out = {}
    out["families.build_s"] = sum(self_time(i) for i in ids("families.build_raw", "families.build_adjusted"))

    dt = ids("nodal.build_derivative_table")
    out["nodal.derivative_table_s"] = sum(self_time(i) for i in dt)
    out["nodal.derivative_table_cells"] = attr_sum(dt, "cells")

    grid = ids("nodal.lebesgue_function_grid")
    out["nodal.lebesgue_grid_s"] = sum(self_time(i) for i in grid)
    out["nodal.lebesgue_grid_cells"] = attr_sum(grid, "cells")
    out["nodal.lebesgue_grid_cells_per_s"] = rate(out["nodal.lebesgue_grid_cells"], out["nodal.lebesgue_grid_s"])

    point = ids("nodal.lebesgue_function")
    out["nodal.lebesgue_point_calls"] = len(point)
    out["nodal.lebesgue_point_s"] = sum(self_time(i) for i in point)

    lw = ids("nodal.log_abs_omega")
    out["nodal.log_omega_s"] = sum(self_time(i) for i in lw)
    out["nodal.log_omega_cells"] = attr_sum(lw, "cells")
    out["nodal.log_omega_cells_per_s"] = rate(out["nodal.log_omega_cells"], out["nodal.log_omega_s"])

    scans = [i for i in lw if spans[i][4]["scan"] and parent_name(i) in _SCAN_CALLERS]
    out["metrics.level_scans"] = len(scans)
    out["metrics.level_scan_s"] = sum(dur(i) for i in scans)

    opt = ids("metrics.minimize_scalar")
    for stage, caller in (("level_refine", "metrics.level_minmax"), ("lebesgue_refine", "metrics.lebesgue_constant")):
        idx = [i for i in opt if parent_name(i) == caller]
        out[f"metrics.{stage}_evals"] = attr_sum(idx, "evals")
        out[f"metrics.{stage}_s"] = sum(dur(i) for i in idx)

    # the A_p window: all of muckenhoupt_constant except its level scan and node build
    scan_set = set(scans)
    builds = set(ids("families.build_raw", "families.build_adjusted"))
    ap = set(ids("metrics.muckenhoupt_constant"))
    windows = [i for i in lw if parent_name(i) == "metrics.muckenhoupt_constant" and i not in scan_set]
    excluded = {}
    for i in scan_set | builds:
        if spans[i][1] in ap:
            excluded[spans[i][1]] = excluded.get(spans[i][1], 0.0) + dur(i)
    out["metrics.ap_window_points"] = attr_sum(windows, "points")
    out["metrics.ap_window_s"] = sum(dur(i) - excluded.get(i, 0.0) for i in ap)

    q = ids("metrics.quad")
    out["metrics.mz_quad_evals"] = attr_sum(q, "evals")
    out["metrics.mz_quad_s"] = sum(dur(i) for i in q)
    out["metrics.mz_quad_us_per_eval"] = 1e6 * out["metrics.mz_quad_s"] / out["metrics.mz_quad_evals"] if q else 0.0

    out["conformal.dist_s"] = sum(dur(i) for i in ids("conformal.dist_to_level"))
    out["metrics.witness_s"] = sum(self_time(i) for i in ids("metrics.lower_bound_witness"))
    out["metrics.fit_s"] = sum(dur(i) for i in ids("metrics.fit_growth"))
    out["cli.self_s"] = sum(self_time(i) for i in ids("cli.main"))
    return out
