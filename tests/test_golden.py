"""The golden files must agree with independently coded closed formulas."""

import json

from liebend import serialize
from liebend.report import load_golden


def test_golden_sec53_values():
    golden = load_golden("golden_sec53.json")
    rows = {v["symbol"]: v for v in golden.values()}
    assert set(rows) == {"[5]", "[4,1]", "[3,2]", "[3,1,1]", "[2,2,1]", "[2,1,1,1]"}
    # equal-parity rule decides evenness
    for symbol, row in rows.items():
        parts = [int(x) for x in symbol.strip("[]").split(",")]
        assert row["even"] == (len({p % 2 for p in parts}) == 1)
        weights = sorted((w for p in parts for w in range(p - 1, -p, -2)), reverse=True)
        assert [int(x) for x in row["vector"]] == weights
        assert row["proper"] == (not row["in_weyl_orbit"])
    assert {s for s, r in rows.items() if r["proper"]} == {"[4,1]", "[2,2,1]"}


def test_golden_sec6_values():
    golden = load_golden("golden_sec6.json")
    for q in range(1, 7):
        for p in range(q, 7):
            key = f"sec6/su({p},{q})"
            r1 = golden[f"{key}/rho1"]
            assert r1["even"] == (p == q)
            assert r1["genus_bound"] == 2 * q * q + (p - q) ** 2 - 1
            assert r1["g_even_dim"] == 4 * q * q + (p - q) ** 2 - 1
            assert r1["sigma_diag"] == [-1] * q + [1] * (p - q) + [-1] * q
            assert r1["proper"] and r1["counts_agree"]
            r2 = golden[f"{key}/rho2"]
            if p == q:
                assert r2 == "undefined"
            else:
                assert r2["even"] and r2["proper"]
                assert r2["genus_bound"] == (p - q) ** 2 + 2 * q - 1
                assert r2["g_even_dim"] == (p + q) ** 2 - 1
                assert r2["sigma_diag"] == [1] * (p + q)
            ex = golden[f"{key}/existence"]
            assert ex == {"benoist": True, "calabi_markus": False}
            if p == q:
                assert golden[f"{key}/proper-implies-even"]["holds"] is True


def test_goldens_are_canonical_json():
    import importlib.resources as resources
    for name in ("golden_sec53.json", "golden_sec6.json"):
        raw = resources.files("liebend.data").joinpath(name).read_text()
        parsed = json.loads(raw)
        assert raw == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert raw == serialize.dumps(parsed) + "\n"
