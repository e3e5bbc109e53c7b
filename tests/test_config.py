import ast
import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

import liebend
from liebend import config as config_mod
from liebend.algebra import generated_subalgebra, make_algebra
from liebend.bending import build_plan, fuchsian_generators
from liebend.cli import main
from liebend.errors import MembershipError, ParameterError, RealizationError
from liebend.report import PRESETS, cmd_bend, cmd_reproduce_sec53
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
    assert main(["bend", "--preset", "su21-rho1-g2", "--config", str(path)]) == 2
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
    assert main(["bend", "--preset", "su21-rho1-g2", *argv]) == 2
    assert f"input error: config key {key!r} needs" in capsys.readouterr().err


@pytest.mark.parametrize("data, key", [({"t_grid": [10 ** 400]}, "t_grid"),
                                       ({"rank_rtol": 10 ** 400}, "rank_rtol")])
def test_an_int_past_float64_in_a_config_file_is_an_input_error(data, key, tmp_path, capsys):
    """json reads a 400-digit number as an int that float64 cannot hold:
    an input error naming the key, not an OverflowError."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["bend", "--preset", "su21-rho1-g2", "--config", str(path)]) == 2
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
    """A bend report echoes the config it ran with; the exact lane reads
    none, so its reports echo the positivity convention alone."""
    cfg = config_mod.Config(membership_rtol=1e-8, t_grid=(0.5,))
    plan = dict(PRESETS["su21-rho1-g2"], verify_dps=0)
    echo = cmd_bend(plan, cfg).config
    assert echo == dict(cfg.echo(), plan=plan) and echo["membership_rtol"] == 1e-8
    assert cmd_reproduce_sec53(cfg).config == {"positivity": config_mod.POSITIVITY}


def test_default_is_named_only_in_make_algebras_signature():
    """No module below the front end reads DEFAULT at a call site: the
    config comes from the algebra.  The CLI names it once, in main, for the
    commands that take no settings."""
    package = pathlib.Path(liebend.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "DEFAULT" in names:
                found.append((path.name, node.lineno))

    def function(module, name):
        return next(n for n in ast.walk(ast.parse((package / module).read_text()))
                    if isinstance(n, ast.FunctionDef) and n.name == name)
    make, main = function("algebra.py", "make_algebra"), function("cli.py", "main")
    assert [name for name, _ in found] == ["algebra.py", "cli.py"]
    assert found[0][1] == make.lineno and main.lineno < found[1][1] <= main.end_lineno


# ---- only bend reads a setting -------------------------------------------


@pytest.mark.parametrize("argv", [["reproduce", "sec53"], ["reproduce", "sec6", "--p", "2",
                                                           "--q", "1"],
                                  ["check", "--family", "sl", "--n", "5", "--ah", "ah.json"]],
                         ids=["sec53", "sec6", "check"])
@pytest.mark.parametrize("flag", [["--tol", "1e-8"], ["--t-grid", "0.1"],
                                  ["--config", "cfg.json"]], ids=["tol", "t-grid", "config"])
def test_the_exact_lane_commands_take_no_setting(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _workloads():
    import importlib.util
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_exact_lane_reads_no_setting(monkeypatch, fresh_caches):
    """reproduce sec53, every sec6 table with 1 <= q <= p <= 6 and each
    query of the benchmark's check-stream pool read no Config field, apart
    from the hash of make_algebra's cache key: this is why
    those commands take no setting and echo none.  A closure on sl(2),
    which reads rank_rtol, shows that the count sees a read."""
    from liebend.report import cmd_check, cmd_reproduce_sec6
    fields = {f.name for f in dataclasses.fields(config_mod.Config)}
    real = object.__getattribute__
    reads = []

    def counting(self, name):
        if name in fields:
            caller = sys._getframe(1).f_code
            if caller.co_name != "__hash__":
                reads.append((name, pathlib.Path(caller.co_filename).name, caller.co_name))
        return real(self, name)

    monkeypatch.setattr(config_mod.Config, "__getattribute__", counting)
    cfg = config_mod.DEFAULT
    cmd_reproduce_sec53(cfg, witness=True)
    for p in range(1, 7):
        for q in range(1, p + 1):
            cmd_reproduce_sec6(p, q, cfg)
    workloads = _workloads()
    queries = workloads.check_stream_queries(workloads.STREAM_SEED)
    assert len(queries) == 25
    for _, family, rows in queries:
        cmd_check(family, rows, cfg)
    assert reads == []
    generated_subalgebra(make_algebra("sl", 2), [np.diag([1.0, -1.0])])
    assert "rank_rtol" in {name for name, _, _ in reads}
