"""Run configuration: tolerances, the bending parameter grid, conventions."""

import dataclasses
import json

from .errors import ParameterError

GOLDEN_RATIO = (1.0 + 5.0 ** 0.5) / 2.0


@dataclasses.dataclass(frozen=True)
class Config:
    # relative tolerance on defining-condition residuals (algebra membership)
    membership_rtol: float = 1e-9
    # singular-value cutoff for rank decisions in bracket closures and kernels,
    # relative to the largest singular value; looser than membership because
    # iterated bracketing amplifies noise
    rank_rtol: float = 1e-7
    # how far an ad-eigenvalue may sit from the nearest integer
    integer_guard: float = 1e-8
    # bound on the seed polygon's relation residual
    seed_relation_tol: float = 1e-10
    # samples with smaller Cartan projection are ignored by the pitchfork margin
    pitchfork_radius: float = 5.0
    # bending parameters tried in order; first one passing the inequalities wins
    t_grid: tuple = (1e-2 * GOLDEN_RATIO, 1e-3 * GOLDEN_RATIO, 1e-4 * GOLDEN_RATIO)
    # positivity convention for restricted roots, echoed in reports
    positivity: str = "lexicographic on (a_1,...,a_r)"

    def replace(self, **kw):
        known = {f.name for f in dataclasses.fields(self)}
        for key in kw:
            if key not in known:
                raise ParameterError(f"unknown config key {key!r}; known: {sorted(known)}")
        return dataclasses.replace(self, **kw)

    def echo(self):
        d = dataclasses.asdict(self)
        d["t_grid"] = list(d["t_grid"])
        return d


DEFAULT = Config()


def load(path=None, **overrides):
    """Config from an optional JSON file plus keyword overrides."""
    cfg = DEFAULT
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError(f"config must be a JSON object, got {type(data).__name__}")
        if "t_grid" in data:
            data["t_grid"] = tuple(float(t) for t in data["t_grid"])
        cfg = cfg.replace(**data)
    if overrides:
        cfg = cfg.replace(**{k: v for k, v in overrides.items() if v is not None})
    return cfg
