"""Layer tracing from outside the package.

`install()` wraps every binding of the listed public functions: the module
attribute, each `from .x import y` copy held by another liebend module, and
class attributes for methods.  Lazy imports inside functions (the
`from .highprec import verify_bent_relation` in `cmd_bend`) read the module
attribute at call time, so they see the wrapper too.

Spans are kept in memory as [name, start, end, parent index, item id] and
written out by the worker at the end of the pass.
"""

import functools
import sys
import time

LAYERS = {
    "report": ("cmd_reproduce_sec53", "cmd_reproduce_sec6", "cmd_check", "cmd_bend",
               "ReportDocument.to_json", "compare_to_golden"),
    "weyl": ("split_torus",),
    "properness": ("in_weyl_orbit_of_subspace", "sl2_action_proper", "benoist_criterion",
                   "benoist_certificate"),
    "algebra": ("make_algebra", "adjoint_operator", "kernel_of", "centralizer",
                "generated_subalgebra", "LieAlgebraSpace.coordinates"),
    "sl2": ("sl2_from_partition", "rho1_su", "rho2_su", "is_even", "ad_weight_multiplicities",
            "sigma", "g_even", "genus_bound", "module_multiplicities", "property_star_basis",
            "rho_of"),
    "bending": ("fuchsian_generators", "build_plan", "fixed_weight_zero_vector",
                "bending_inequalities", "bend", "pushed_forward", "density_certificate"),
    "highprec": ("verify_bent_relation",),
    "serialize": ("matrix_to_json",),
}

ROOT = "cli.main"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# derived counters, in addition to <span>.calls and <span>.self_s
EXTRA_METRICS = (
    ("weyl.elements_built", "count"),
    ("properness.orbit_hit_ratio", "ratio"),
    ("bending.t_grid_accept_ratio", "ratio"),
    ("report.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    return out + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.active = False
        self.elements_built = 0
        self.orbit_hits = 0
        self.plans_with_t = 0

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.item]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()
        if name == "weyl.split_torus":
            self.elements_built += result.weyl_order
        elif name == "properness.in_weyl_orbit_of_subspace":
            self.orbit_hits += bool(result[0])
        elif name == "bending.build_plan":
            self.plans_with_t += result.t is not None
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Replace every binding of each listed function by a traced wrapper."""
        import liebend.cli  # noqa: F401  (loads the modules the CLI binds)
        import liebend.highprec  # noqa: F401
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "liebend" or n.startswith("liebend.")]
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"liebend.{mod_name}"]
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def layer_table(self):
        """Per-layer metrics from the recorded spans: calls, self time (span
        duration minus the time its direct children cover) and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        root_self = 0.0
        ineq_in_plan = 0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child_time[k]
            if name == ROOT:
                root_self += own
                continue
            calls[name] += 1
            self_s[name] += own
            if name == "bending.bending_inequalities" and parent >= 0 \
                    and self.spans[parent][0] == "bending.build_plan":
                ineq_in_plan += 1
        orbit_calls = calls["properness.in_weyl_orbit_of_subspace"]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["weyl.elements_built"] = self.elements_built
        out["properness.orbit_hit_ratio"] = self.orbit_hits / orbit_calls if orbit_calls else 0.0
        out["bending.t_grid_accept_ratio"] = \
            self.plans_with_t / ineq_in_plan if ineq_in_plan else 0.0
        out["report.self_s"] = root_self
        return out
