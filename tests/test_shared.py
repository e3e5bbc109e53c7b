"""Constructions shared by the commands of one process: the algebra, its
split torus, the constructed triples with their even parts, isotypic data,
star bases, and the seed polygons are built once per key,
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
    from fractions import Fraction
    from liebend.highprec import mp_fuchsian

    def corner(polygon):
        a = polygon[0][0][0]
        return Fraction(int(a.re[0, 0])) * Fraction(2) ** a.exp

    low = mp_fuchsian(3, 103)
    assert mp_fuchsian(3, 103) is low
    high = mp_fuchsian(3, 136)
    assert high is not low and corner(high) != corner(low)
    assert abs(corner(high) - corner(low)) < Fraction(1, 10 ** 28)


def _shared_arrays():
    sl5, su32 = make_algebra("sl", 5), make_algebra("su", 3, 2)
    triple, rho1 = sl2_from_partition(sl5, (4, 1)), rho1_su(su32)
    iso = module_multiplicities(su32, rho1)
    seed = fuchsian_generators(2)
    torus = split_torus(su32)
    return {
        "basis": su32.basis, "entries": su32.entries[3], "form": su32.form,
        "solver": su32._solver, "flat": su32._flat, "support": su32._support[1],
        "chunk table": torus.weyl_chunks(8 * torus.coord_len).tail,
        "positive roots": torus._positive_functionals[0],
        "h": triple.h, "e": rho1.e, "f": rho1.f, "ad_e": rho1.ad_e, "ad_f": triple.ad_f,
        "basis_weights": rho1.basis_weights, "sigma": rho1.sigma, "g_even": g_even(triple).onb,
        "star": triple.star_basis[0].coords, "star matrix": rho1.star_basis[0].matrix,
        "stacked": iso.stacked, "solver of pieces": iso.solver,
        "piece": next(iter(iso.piece_columns.values())),
        "polygon a": seed.a[0], "polygon b": seed.b[1],
    }


SHARED_ARRAYS = ("basis", "entries", "form", "solver", "flat", "support", "chunk table",
                 "positive roots", "h", "e", "f", "ad_e", "ad_f", "basis_weights", "sigma",
                 "g_even", "star", "star matrix", "stacked", "solver of pieces", "piece",
                 "polygon a", "polygon b")


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
    (lambda: split_torus(make_algebra("su", 9, 9)), r"\|W\| = 185794560 exceeds the Weyl group"),
    (lambda: sl2_from_partition(make_algebra("sl", 5), (3, 1)), "not a partition of 5"),
    (lambda: sl2_from_partition(make_algebra("su", 2, 1), (2, 1)), "live in sl"),
    (lambda: rho2_su(make_algebra("su", 3, 3)), "undefined for p = q"),
    (lambda: rho1_su(make_algebra("sl", 3)), "lives in su"),
    (lambda: fuchsian_generators(1), "genus >= 2"),
    (lambda: fuchsian_generators(2.9), "must be an integer"),
], ids=["sl1", "su23", "family", "float-n", "order-cap", "partition", "partition-in-su",
        "rho2-pq", "rho1-in-sl", "genus1", "genus-float"])
def test_invalid_input_raises_on_every_call(call, error):
    for _ in range(3):
        with pytest.raises(ParameterError, match=error):
            call()


def test_centralizer_and_star_basis_built_once_per_triple(fresh_caches, monkeypatch):
    """A triple that returns at a second genus reuses its star basis, the
    basis of its centralizer: one star basis, and no kernel of
    (ad H, ad E, ad F), since the chains of E fix the centralizer."""
    from liebend import sl2
    triple = sl2_from_partition(make_algebra("sl", 4), (2, 1, 1))
    stars, kernels = [], []
    star_basis, kernel_of = sl2.property_star_basis, sl2.kernel_of

    def counted_star(t):
        stars.append(t)
        return star_basis(t)

    def counted_kernel(ops, *args):
        kernels.append(len(ops))
        return kernel_of(ops, *args)

    monkeypatch.setattr(sl2, "property_star_basis", counted_star)
    monkeypatch.setattr(sl2, "kernel_of", counted_kernel)
    plans = [build_plan(triple, fuchsian_generators(genus)) for genus in (5, 6)]
    assert stars == [triple] and 3 not in kernels
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


def test_cli_import_leaves_mpmath_unloaded(tmp_path):
    """Importing the CLI loads neither mpmath nor the mp lane: commands
    that verify nothing never pay for that import.  A bend that verifies at
    verify_dps 40 loads the mp lane, which computes without mpmath."""
    out = str(tmp_path / "bend.json")
    code = ("import sys, liebend.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in ('mpmath', 'liebend.highprec') if m in sys.modules)\n"
            "print(loaded())\n"
            f"rc = liebend.cli.main(['bend', '--preset', 'sl5-even5-g4', '--out', {out!r}])\n"
            "print(rc, loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "0 ['liebend.highprec']"]
    residuals = next(c["verdict"] for c in json.loads(Path(out).read_text())["checks"]
                     if c["check"] == "bend/residuals")
    assert residuals["verified"]["dps"] == 40


def test_reproduce_and_check_leave_the_integer_kernel_unloaded(tmp_path):
    """The integer kernel is imported inside the bend path (the conjugator
    and the fixed-line fallback): importing the CLI and running reproduce
    sec53, reproduce sec6 and check never load it, and a float-only bend
    does.  Likewise the exact lane reads only the basis's support, so the
    algebras those runs used (sl(5), su(3,2), su(3,3)) never build the dense
    basis, and the bend's su(2,1) does."""
    (tmp_path / "ah_sl5.json").write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    (tmp_path / "ah_su33.json").write_text(json.dumps([["1", "0", "0"], ["0", "1", "-1"]]))
    plan = tmp_path / "plan.json"  # verify_dps 0: the float lane alone loads the kernel
    plan.write_text(json.dumps({"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2,
                                "verify_dps": 0}))
    runs = [["reproduce", "sec53"], ["reproduce", "sec6", "--p", "3", "--q", "2"],
            ["check", "--family", "sl", "--n", "5", "--ah", str(tmp_path / "ah_sl5.json"),
             "--witness"],
            ["check", "--family", "su", "--p", "3", "--q", "3", "--ah",
             str(tmp_path / "ah_su33.json"), "--witness"]]
    code = ("import sys, liebend.cli\n"
            "print('liebend.intkernel' in sys.modules)\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    rc = liebend.cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.out'])\n"
            "    print(rc, 'liebend.intkernel' in sys.modules)\n"
            f"rc = liebend.cli.main(['bend', '--plan', {str(plan)!r},\n"
            f"                       '--out', {str(tmp_path / 'bend.out')!r}])\n"
            "print(rc, 'liebend.intkernel' in sys.modules)\n"
            "from liebend.algebra import _shared_algebra, make_algebra\n"
            "def dense(*args):  # whether the cached algebra has built its basis\n"
            "    misses = _shared_algebra.cache_info().misses\n"
            "    alg = make_algebra(*args)\n"
            "    assert _shared_algebra.cache_info().misses == misses\n"
            "    return 'basis' in vars(alg)\n"
            "print([dense('sl', 5), dense('su', 3, 2), dense('su', 3, 3), dense('su', 2, 1)])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:7] == (["False"] + ["0 False"] * 4 + ["0 True"]
                                           + ["[False, False, False, True]"])


def test_commands_leave_scipy_and_numpy_ma_unloaded(tmp_path):
    """The float lane's matrix exponential is `algebra.expm`: importing the
    CLI and running reproduce sec53, check and a bend of the sl5-even5-g4
    preset at verify_dps 0 load neither scipy nor numpy.ma (which
    np.unique loads on its first call)."""
    from liebend.report import PRESETS
    (tmp_path / "ah_sl5.json").write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    # the pinned su(5,5) query: its certificate walks lines (properness._line_hits)
    (tmp_path / "ah_su55.json").write_text(json.dumps(
        [[-2, 2, 0, -1, 2], [-1, 0, 0, 0, 2], [0, -1, 1, 2, -2], [-2, 2, 2, 2, 1]]))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(dict(PRESETS["sl5-even5-g4"], verify_dps=0)))
    runs = [["reproduce", "sec53"],
            ["check", "--family", "sl", "--n", "5", "--ah", str(tmp_path / "ah_sl5.json"),
             "--witness"],
            ["check", "--family", "su", "--p", "5", "--q", "5", "--ah",
             str(tmp_path / "ah_su55.json"), "--witness"],
            ["bend", "--plan", str(plan)]]
    code = ("import sys, liebend.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules)\n"
            "print(loaded())\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    rc = liebend.cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.out'])\n"
            "    print(rc, loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:5] == ["[]"] + ["0 []"] * 4
