"""The names and call shapes of lshapearc that bench/tracer.py relies on.

The tracer wraps lshapearc's functions by name, attributes
`minimize_scalar` calls to the metric that made them, counts the
integrand calls of `metrics.quad` (the panel Gauss-Legendre rule, which
calls its integrand once per level of panels, with every point of the
level), times `conformal.dist_to_level`, and recognises a level scan by
its size (64 samples per node).  This installs it as bench/run.py does
and runs one call of each traced search, and one `mz_ratio_worst`, whose
single pass must still reach `quad` and `dist_to_level` by those names,
so that a rename or restructuring that blinds a traced benchmark run
fails here.
"""

import sys
import types
from pathlib import Path

import lshapearc
import lshapearc.cli  # noqa: F401  (the tracer wraps cli.main too)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # run from its source text, so that nothing is written under bench/
    mod = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_sees_level_scans_and_refinements():
    tracing = _load_tracer()
    modules = [lshapearc] + [sys.modules[f"lshapearc.{m}"] for m in ("families", "nodal", "metrics", "conformal", "cli")]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:  # a failed install is undone too
        tracer.install(modules)
        lshapearc.level_minmax(16)
        lshapearc.muckenhoupt_constant(16, [2.0])
        lshapearc.lebesgue_constant(lshapearc.build_adjusted(16))
        lshapearc.mz_ratio(16, 2.0)
        lshapearc.mz_ratio_worst(16, 2.0, [0, 3, 8])
        lshapearc.fit_growth([(16, 3.0), (32, 3.9), (64, 5.1), (128, 6.6)], "power_law")
    finally:
        tracer.uninstall()

    for mod, names in zip(modules, before):
        assert vars(mod).keys() == names.keys()
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__
    out = tracing.layer_metrics(tracer.spans)
    # level_minmax, muckenhoupt_constant and mz_ratio's choose_ratio_index
    assert out["metrics.level_scans"] == 3
    assert out["metrics.level_refine_evals"] > 0
    # the Lebesgue search has no polish: its chain and zoom evaluate through
    # the traced kernel, so nodal.lebesgue_grid_cells counts them inside its span
    (search,) = [i for i, span in enumerate(tracer.spans) if span[0] == "metrics.lebesgue_constant"]
    assert sum(span[4]["cells"] for span in tracer.spans
               if span[0] == "nodal.lebesgue_function_grid" and span[1] == search) > 0
    assert out["metrics.mz_quad_evals"] > 0
    assert out["conformal.dist_s"] > 0
    assert out["metrics.fit_s"] > 0
