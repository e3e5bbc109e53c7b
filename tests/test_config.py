import ast
import dataclasses
import json
import pathlib

import numpy as np
import pytest

import liebend
from liebend import config as config_mod
from liebend.algebra import generated_subalgebra, make_algebra
from liebend.bending import build_plan, fuchsian_generators
from liebend.cli import main
from liebend.errors import MembershipError, ParameterError, RealizationError
from liebend.report import cmd_bend, cmd_reproduce_sec53
from liebend.sl2 import rho1_su, sl2_from_partition


def test_defaults():
    cfg = config_mod.DEFAULT
    assert cfg.membership_rtol == 1e-9
    assert cfg.rank_rtol == 1e-7
    assert len(cfg.t_grid) == 3
    # grid scaled by the golden ratio, decades apart
    assert cfg.t_grid[0] / cfg.t_grid[1] == pytest.approx(10.0)


def test_load_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"membership_rtol": 1e-8, "t_grid": [0.5, 0.05]}))
    cfg = config_mod.load(str(path))
    assert cfg.membership_rtol == 1e-8
    assert cfg.t_grid == (0.5, 0.05)
    cfg2 = config_mod.load(str(path), membership_rtol=1e-6)
    assert cfg2.membership_rtol == 1e-6
    cfg3 = config_mod.load(None, rank_rtol=1e-6)
    assert cfg3.rank_rtol == 1e-6 and cfg3.membership_rtol == 1e-9


def test_echo_round_trips():
    echo = config_mod.DEFAULT.echo()
    assert echo["positivity"].startswith("lexicographic")
    assert isinstance(echo["t_grid"], list)
    assert json.dumps(echo, sort_keys=True)


def test_unknown_key_is_a_typed_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"relation_tol": 1e-8}))
    with pytest.raises(ParameterError, match="relation_tol"):
        config_mod.load(str(path))
    assert main(["reproduce", "sec53", "--config", str(path)]) == 2
    assert "unknown config key 'relation_tol'" in capsys.readouterr().err
    path.write_text(json.dumps([["rank_rtol", 1e-7]]))
    with pytest.raises(ParameterError, match="JSON object"):
        config_mod.load(str(path))


@pytest.mark.parametrize("key", ["membership_rtol", "rank_rtol", "seed_relation_tol"])
@pytest.mark.parametrize("value", ["x", True, 0.0, -1e-9, float("nan"), float("inf"), None])
def test_tolerances_are_validated_when_loaded(key, value):
    with pytest.raises(ParameterError, match=key):
        config_mod.DEFAULT.replace(**{key: value})


@pytest.mark.parametrize("grid", [[], "0.1", 0.1, ["a"], [0.1, 0], [True], [float("nan")]])
def test_t_grid_is_validated_when_loaded(grid):
    with pytest.raises(ParameterError, match="t_grid"):
        config_mod.DEFAULT.replace(t_grid=grid)


@pytest.mark.parametrize("argv, key", [
    (["--tol", "nan"], "membership_rtol"),
    (["--tol=-1e-9"], "membership_rtol"),
    (["--t-grid", "abc"], "t_grid"),
    (["--t-grid", "0.1,0"], "t_grid"),
])
def test_cli_flags_go_through_the_config_checks(argv, key, capsys):
    assert main(["reproduce", "sec53", *argv]) == 2
    assert f"input error: config key {key!r} needs" in capsys.readouterr().err


def test_four_settable_fields_and_the_same_echo():
    names = [f.name for f in dataclasses.fields(config_mod.Config)]
    assert names == ["membership_rtol", "rank_rtol", "seed_relation_tol", "t_grid"]
    with pytest.raises(ParameterError, match="unknown config key 'pitchfork_radius'"):
        config_mod.load(None, pitchfork_radius=5.0)
    assert sorted(config_mod.DEFAULT.echo()) == sorted(names + ["positivity"])


# ---- every field changes a result --------------------------------------


def test_membership_rtol_reaches_the_membership_checks(capsys):
    with pytest.raises(MembershipError):
        cmd_bend("su21-rho1-g2", config_mod.Config(membership_rtol=1e-300))
    assert main(["bend", "--preset", "su21-rho1-g2", "--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: matrix is not in su(2, 1)") and "1.0e-300" in err


def test_rank_rtol_shrinks_a_closure():
    h = np.diag([1.0, -1.0])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    seeds = [h, e + 1e-4 * e.T]  # [H, E + dF] = 2E - 2dF is nearly parallel to E + dF
    assert generated_subalgebra(make_algebra("sl", 2), seeds).dim == 3
    loose = make_algebra("sl", 2, config=config_mod.Config(rank_rtol=1e-2))
    assert generated_subalgebra(loose, seeds).dim == 2


def test_seed_relation_tol_admits_the_genus_17_seed():
    """The genus-17 polygon's residual, 6.7e-8, is above both the default
    tolerance and the rounding allowance of its word (5.3e-8); a looser
    tolerance admits it."""
    seed = fuchsian_generators(17)
    alg = make_algebra("sl", 5)
    with pytest.raises(RealizationError, match="polygon relation residual"):
        build_plan(sl2_from_partition(alg, (3, 1, 1)), seed)
    loose = make_algebra("sl", 5, config=config_mod.Config(seed_relation_tol=1e-7))
    assert build_plan(sl2_from_partition(loose, (3, 1, 1)), seed).t is not None


def test_t_grid_sets_the_bending_parameter():
    seed = fuchsian_generators(2)
    ts = []
    for grid in ((0.5,), (0.003,)):
        alg = make_algebra("su", 2, 1, config=config_mod.Config(t_grid=grid))
        ts.append(build_plan(rho1_su(alg), seed).t)
    assert ts == [0.5, 0.003]


def test_reports_echo_the_algebras_config():
    cfg = config_mod.Config(membership_rtol=1e-8, t_grid=(0.5,))
    echo = cmd_reproduce_sec53(cfg).config
    assert echo == cfg.echo() and echo["membership_rtol"] == 1e-8


def test_default_is_named_only_in_make_algebras_signature():
    """No module reads DEFAULT at a call site: the config comes from the algebra."""
    found = []
    for path in sorted(pathlib.Path(liebend.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "DEFAULT" in names:
                found.append((path.name, node.lineno))
    make = next(n for n in ast.walk(ast.parse(
        (pathlib.Path(liebend.__file__).parent / "algebra.py").read_text()))
        if isinstance(n, ast.FunctionDef) and n.name == "make_algebra")
    assert found == [("algebra.py", make.lineno)]
