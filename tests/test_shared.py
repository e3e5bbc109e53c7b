"""Constructions shared by the commands of one process: the algebra, its
split torus, the constructed triples with their even parts, isotypic data,
centralizers and star bases, and the seed polygons are built once per key,
hold read-only arrays, and leave every report's bytes independent of
command order."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liebend import config as config_mod
from liebend.algebra import make_algebra
from liebend.bending import build_plan, fuchsian_generators
from liebend.cli import main
from liebend.errors import ParameterError
from liebend.sl2 import (g_even, module_multiplicities, rho1_su, rho2_su,
                         sl2_from_partition)
from liebend.weyl import split_torus

from conftest import shared_caches

SRC = Path(__file__).resolve().parents[1] / "src"


def test_same_key_same_object():
    sl5 = make_algebra("sl", 5)
    assert make_algebra("sl", 5) is sl5
    assert make_algebra("SL", np.int64(5), config=config_mod.load()) is sl5
    su32 = make_algebra("su", 3, 2)
    assert make_algebra("SU", 3, 2) is su32 and make_algebra("su(p,q)", 3, 2) is su32
    assert split_torus(sl5) is split_torus(sl5)
    triple = sl2_from_partition(sl5, (3, 1, 1))
    assert sl2_from_partition(sl5, [3, 1, 1]) is triple
    assert rho1_su(su32) is rho1_su(su32) and rho2_su(su32) is rho2_su(su32)
    assert g_even(triple) is g_even(triple)
    iso = module_multiplicities(sl5, triple)
    assert module_multiplicities(sl5, triple) is iso
    assert iso.target is g_even(triple)
    assert fuchsian_generators(3) is fuchsian_generators(np.int64(3))


def test_different_configs_do_not_share():
    base = make_algebra("su", 2, 1)
    loose = make_algebra("su", 2, 1, config=config_mod.load(membership_rtol=1e-8))
    assert loose is not base and loose.config.membership_rtol == 1e-8
    assert split_torus(loose) is not split_torus(base)
    assert rho1_su(loose) is not rho1_su(base)
    # equal configs (0.0 == -0.0) that echo differently keep their own algebra
    zero = make_algebra("su", 2, 1, config=config_mod.load(pitchfork_radius=0.0))
    minus = make_algebra("su", 2, 1, config=config_mod.load(pitchfork_radius=-0.0))
    assert zero is not minus
    assert json.dumps(zero.config.echo()) != json.dumps(minus.config.echo())


def test_module_multiplicities_takes_only_the_triples_algebra():
    """A second algebra beside the triple, here one with a loose rank_rtol,
    would decompose the triple under the other algebra's config."""
    triple = rho2_su(make_algebra("su", 3, 2))
    loose = make_algebra("su", 3, 2, config=config_mod.Config(rank_rtol=1e-2))
    assert loose is not triple.algebra
    with pytest.raises(ParameterError, match="the triple's own algebra"):
        module_multiplicities(loose, triple)
    iso = module_multiplicities(triple.algebra, triple)
    assert build_plan(triple, fuchsian_generators(4)).iso is iso


def test_mp_polygon_is_keyed_by_precision():
    import mpmath as mp
    from liebend.highprec import mp_fuchsian
    with mp.workdps(30):
        low = mp_fuchsian(3)
        assert mp_fuchsian(3) is low
    with mp.workdps(40):
        high = mp_fuchsian(3)
        assert high is not low and high[0][0][0, 0] != low[0][0][0, 0]
        assert abs(high[0][0][0, 0] - low[0][0][0, 0]) < mp.mpf(10) ** -28


def _shared_arrays():
    sl5, su32 = make_algebra("sl", 5), make_algebra("su", 3, 2)
    triple, rho1 = sl2_from_partition(sl5, (4, 1)), rho1_su(su32)
    iso = module_multiplicities(su32, rho1)
    seed = fuchsian_generators(2)
    torus = split_torus(su32)
    return {
        "basis": su32.basis, "form": su32.form, "solver": su32._solver,
        "flat": su32._flat, "support": su32._support[1],
        "perms": torus.perms, "positive roots": torus._positive_functionals[0],
        "h": triple.h, "e": rho1.e, "f": rho1.f, "ad_h": triple.ad_h, "ad_e": rho1.ad_e,
        "basis_weights": rho1.basis_weights, "h_centralizer": rho1.h_centralizer,
        "sigma": rho1.sigma, "g_even": g_even(triple).onb,
        "centralizer": triple.centralizer.onb, "star": triple.star_basis[0].coords,
        "stacked": iso.stacked, "solver of pieces": iso.solver,
        "piece": next(iter(iso.piece_columns.values())),
        "polygon a": seed.a[0], "polygon b": seed.b[1],
    }


SHARED_ARRAYS = ("basis", "form", "solver", "flat", "support", "perms", "positive roots",
                 "h", "e", "f", "ad_h", "ad_e", "basis_weights", "h_centralizer", "sigma",
                 "g_even", "centralizer", "star", "stacked", "solver of pieces", "piece", "polygon a", "polygon b")


def test_shared_array_names():
    assert tuple(_shared_arrays()) == SHARED_ARRAYS


@pytest.mark.parametrize("name", SHARED_ARRAYS)
def test_writing_into_shared_arrays_raises(name):
    arr = _shared_arrays()[name]
    before = arr.copy()
    with pytest.raises(ValueError):
        arr.flat[0] = arr.flat[0] + 1
    with pytest.raises(ValueError):
        arr += 1
    assert np.array_equal(arr, before)


@pytest.mark.parametrize("call, error", [
    (lambda: make_algebra("sl", 1), "n >= 2"),
    (lambda: make_algebra("su", 2, 3), "p >= q >= 1"),
    (lambda: make_algebra("so", 3), "unknown family"),
    (lambda: make_algebra("sl", 2.5), "must be an integer"),
    (lambda: split_torus(make_algebra("sl", 10)), "exceeds the extensional Weyl cap"),
    (lambda: sl2_from_partition(make_algebra("sl", 5), (3, 1)), "not a partition of 5"),
    (lambda: sl2_from_partition(make_algebra("su", 2, 1), (2, 1)), "live in sl"),
    (lambda: rho2_su(make_algebra("su", 3, 3)), "undefined for p = q"),
    (lambda: rho1_su(make_algebra("sl", 3)), "lives in su"),
    (lambda: fuchsian_generators(1), "genus >= 2"),
    (lambda: fuchsian_generators(2.9), "must be an integer"),
], ids=["sl1", "su23", "family", "float-n", "rank-cap", "partition", "partition-in-su",
        "rho2-pq", "rho1-in-sl", "genus1", "genus-float"])
def test_invalid_input_raises_on_every_call(call, error):
    for _ in range(3):
        with pytest.raises(ParameterError, match=error):
            call()


def test_centralizer_and_star_basis_built_once_per_triple(fresh_caches, monkeypatch):
    """A triple that returns at a second genus reuses its centralizer and its
    star basis: one kernel of (ad H, ad E, ad F) and one star basis."""
    from liebend import sl2
    triple = sl2_from_partition(make_algebra("sl", 4), (2, 1, 1))
    stars, kernels = [], []
    star_basis, kernel_of = sl2.property_star_basis, sl2.kernel_of

    def counted_star(z, t):
        stars.append(t)
        return star_basis(z, t)

    def counted_kernel(ops, *args):
        kernels.append(len(ops) == 3 and ops[0] is triple.ad_h)
        return kernel_of(ops, *args)

    monkeypatch.setattr(sl2, "property_star_basis", counted_star)
    monkeypatch.setattr(sl2, "kernel_of", counted_kernel)
    plans = [build_plan(triple, fuchsian_generators(genus)) for genus in (5, 6)]
    assert stars == [triple] and sum(kernels) == 1
    assert all(0 in {i for i, _ in plan.iso.Lambda} for plan in plans)


def test_shared_caches_are_all_found():
    names = {getattr(c, "__name__", "") for c in shared_caches()}
    assert {"_shared_algebra", "split_torus", "_partition_triple", "rho1_su", "rho2_su",
            "g_even", "_isotypic_data", "_polygon"} <= names


# --- one process, many commands ---------------------------------------------

def _session(tmp_path):
    """A mixed CLI session: sec53, sec6 rows, check queries on two families,
    bend plans at two genera, and two --tol values."""
    (tmp_path / "ah_sl5.json").write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    (tmp_path / "ah_su33.json").write_text(json.dumps([["1", "0", "0"], ["0", "1", "-1"]]))
    (tmp_path / "plan_sl3.json").write_text(json.dumps(
        {"family": "sl", "n": 3, "triple": {"partition": [3]}, "genus": 3, "verify_dps": 30}))
    return [
        ("sec53", ["reproduce", "sec53"]),
        ("sec6-21", ["reproduce", "sec6", "--p", "2", "--q", "1"]),
        ("sec6-32", ["reproduce", "sec6", "--p", "3", "--q", "2"]),
        ("sec6-32-tol", ["reproduce", "sec6", "--p", "3", "--q", "2", "--tol", "1e-8"]),
        ("check-sl5", ["check", "--family", "sl", "--n", "5", "--ah",
                       str(tmp_path / "ah_sl5.json")]),
        ("check-sl5-tol", ["check", "--family", "sl", "--n", "5", "--ah",
                           str(tmp_path / "ah_sl5.json"), "--tol", "1e-8"]),
        ("check-su33", ["check", "--family", "su", "--p", "3", "--q", "3", "--ah",
                        str(tmp_path / "ah_su33.json")]),
        ("bend-su21-g2", ["bend", "--preset", "su21-rho1-g2"]),
        ("bend-sl3-g3", ["bend", "--plan", str(tmp_path / "plan_sl3.json")]),
        ("bend-sl3-g3-tol", ["bend", "--plan", str(tmp_path / "plan_sl3.json"),
                             "--tol", "1e-8"]),
    ]


def _run(tmp_path, items, capsys):
    out = {}
    for name, argv in items:
        path = tmp_path / f"{name}.out"
        rc = main(argv + ["--out", str(path)])
        out[name] = (rc, capsys.readouterr().err, path.read_bytes())
    return out


def test_mixed_session_bytes_do_not_depend_on_order(tmp_path, capsys):
    items = _session(tmp_path)
    forward = _run(tmp_path, items, capsys)
    backward = _run(tmp_path, items[::-1], capsys)
    for cache in shared_caches():
        cache.cache_clear()
    cleared = _run(tmp_path, items[3:] + items[:3], capsys)
    assert forward == backward == cleared
    for name, argv in items:
        rc, err, payload = forward[name]
        assert rc == 0 and err == ""
        tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-9
        assert json.loads(payload)["config"]["membership_rtol"] == tol


def test_cli_import_leaves_mpmath_unloaded():
    """Importing the CLI loads neither mpmath nor the mp lane: commands
    that verify nothing in mpmath never pay for that import."""
    code = ("import sys, liebend.cli; "
            "print(sorted(m for m in ('mpmath', 'liebend.highprec') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
