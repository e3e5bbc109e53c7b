import json

import pytest

from liebend import config as config_mod


def test_defaults():
    cfg = config_mod.DEFAULT
    assert cfg.membership_rtol == 1e-9
    assert cfg.rank_rtol == 1e-7
    assert cfg.pitchfork_radius == 5.0
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
    cfg3 = config_mod.load(None, pitchfork_radius=2.0)
    assert cfg3.pitchfork_radius == 2.0 and cfg3.membership_rtol == 1e-9


def test_echo_round_trips():
    echo = config_mod.DEFAULT.echo()
    assert echo["positivity"].startswith("lexicographic")
    assert isinstance(echo["t_grid"], list)
    assert json.dumps(echo, sort_keys=True)


def test_unknown_key_is_a_typed_input_error(tmp_path, capsys):
    from liebend.cli import main
    from liebend.errors import ParameterError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"relation_tol": 1e-8}))
    with pytest.raises(ParameterError, match="relation_tol"):
        config_mod.load(str(path))
    assert main(["reproduce", "sec53", "--config", str(path)]) == 2
    assert "unknown config key 'relation_tol'" in capsys.readouterr().err
    path.write_text(json.dumps([["rank_rtol", 1e-7]]))
    with pytest.raises(ParameterError, match="JSON object"):
        config_mod.load(str(path))
