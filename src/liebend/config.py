"""Run configuration: tolerances and the bending parameter grid.  The
algebra holds its Config (`make_algebra(..., config=)`); every tolerance is
read from there at its one use site."""

import dataclasses
import json
import math
import numbers

from .errors import ParameterError

GOLDEN_RATIO = (1.0 + 5.0 ** 0.5) / 2.0

# positivity convention for restricted roots, echoed in reports
POSITIVITY = "lexicographic on (a_1,...,a_r)"


def finite_real(value):
    """True iff value is a real number, not a bool, that float64 holds as a
    finite number: not an int past float64, as json reads 1e400 written out."""
    try:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) \
            and math.isfinite(value)
    except OverflowError:
        return False


def _finite(key, value, ok, need):
    if not finite_real(value) or not ok(value):
        raise ParameterError(f"config key {key!r} needs {need}, got {value!r}")
    return float(value)


@dataclasses.dataclass(frozen=True)
class Config:
    # relative tolerance on defining-condition residuals (algebra membership)
    membership_rtol: float = 1e-9
    # singular-value cutoff for rank decisions in bracket closures and kernels,
    # relative to the largest singular value; looser than membership because
    # iterated bracketing amplifies noise
    rank_rtol: float = 1e-7
    # floor of the bound on the seed polygon's relation residual (build_plan
    # raises it to the rounding allowance of the relation word when larger)
    seed_relation_tol: float = 1e-10
    # bending parameters tried in order; first one passing the inequalities wins
    t_grid: tuple = (1e-2 * GOLDEN_RATIO, 1e-3 * GOLDEN_RATIO, 1e-4 * GOLDEN_RATIO)

    def __post_init__(self):
        def put(key, value):
            object.__setattr__(self, key, value)

        for key in ("membership_rtol", "rank_rtol", "seed_relation_tol"):
            put(key, _finite(key, getattr(self, key), lambda v: v > 0, "a finite number > 0"))
        grid = self.t_grid
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ParameterError(f"config key 't_grid' needs a non-empty list, got {grid!r}")
        put("t_grid", tuple(_finite("t_grid", t, lambda v: v != 0, "finite non-zero numbers")
                            for t in grid))

    def replace(self, **kw):
        known = {f.name for f in dataclasses.fields(self)}
        for key in kw:
            if key not in known:
                raise ParameterError(f"unknown config key {key!r}; known: {sorted(known)}")
        return dataclasses.replace(self, **kw)

    def echo(self):
        return dict(dataclasses.asdict(self), t_grid=list(self.t_grid), positivity=POSITIVITY)


DEFAULT = Config()


def load(path=None, **overrides):
    """Config from an optional JSON file plus keyword overrides."""
    cfg = DEFAULT
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError(f"config must be a JSON object, got {type(data).__name__}")
        cfg = cfg.replace(**data)
    return cfg.replace(**overrides)
