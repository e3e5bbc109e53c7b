"""The exact lane in bounded memory: `check --witness` on the two largest
Weyl groups the package admits runs in a child process whose address space
is capped at 512 MiB (`RLIMIT_AS`, set on the child only) with one BLAS
thread.  Importing the CLI alone takes about 231 MB of address space there;
building all of W for su(8,8) (|W| = 10,321,920) would take over 1 GB.
Two in-process guards keep the sec6 path's even part off dense work:
g_even's peak allocation, and no numpy.linalg call in `reproduce sec6`.
A third keeps LAPACK's eigensolvers off the bend path: the first eig call
after `import liebend.cli` adds about 1 MB of peak RSS to a fresh process,
and about 0.4 MB to a bend-float pass.  A fourth holds each check of the
benchmark's check-stream pool to the exact lane's bound on what a pass
over W keeps.  A fifth, in a child process that wraps numpy.linalg before
it imports the CLI, keeps LAPACK out of the exact lane altogether: the
import, `reproduce` and `check` call no numpy.linalg function, and a
float-only bend does.  Two more hold the size caps: `check` at
MATRIX_SIZE_CAP fits in 512 MiB, and each input past a cap exits 2 within
1 s under 1 GiB, before anything is built."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"
ADDRESS_SPACE = 512 * 2 ** 20


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _check(tmp_path, family_args, rows):
    ah = tmp_path / "ah.json"
    ah.write_text(repr(rows))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "liebend.cli", "check", *family_args,
                           "--ah", str(ah), "--witness"],
                          env=env, capture_output=True, preexec_fn=_limit, timeout=120)


@pytest.mark.parametrize("family_args, rows, expected", [
    (["--family", "su", "--p", "8", "--q", "8"],
     [[1 if j == i else 0 for j in range(8)] for i in range(3)],
     "check_su88_e123_witness.json"),
    (["--family", "sl", "--n", "10"], [[1, -1] + [0] * 8], None),
], ids=["su88-e123", "sl10"])
def test_check_fits_in_512_mib(tmp_path, family_args, rows, expected):
    done = _check(tmp_path, family_args, rows)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    if expected:
        assert done.stdout == (DATA / expected).read_bytes()


def test_check_at_the_matrix_size_cap_fits_in_512_mib(tmp_path):
    """MATRIX_SIZE_CAP is the largest n whose `check --family sl` fits in
    512 MiB: it stops at the Weyl group cap with no traceback.  su(371,1),
    of the same size, is checked in full."""
    from liebend.algebra import MATRIX_SIZE_CAP
    n = MATRIX_SIZE_CAP
    done = _check(tmp_path, ["--family", "sl", "--n", str(n)], [[1, -1] + [0] * (n - 2)])
    assert done.returncode == 2
    assert done.stderr.decode().startswith("input error: |W| = a 797-digit number exceeds")
    done = _check(tmp_path, ["--family", "su", "--p", str(n - 1), "--q", "1"], [[1]])
    assert done.returncode == 0, done.stderr.decode()


# ROADMAP item 30's table: inputs too large to build, each refused by its cap
# before the build, so each exits 2 with one line on stderr
_TOO_LARGE = [
    (["check", "--family", "sl", "--n", "12"], 12,
     "|W| = 479001600 exceeds the Weyl group cap 10321920"),
    (["check", "--family", "sl", "--n", "200"], 200,
     "|W| = a 375-digit number exceeds the Weyl group cap 10321920"),
    (["check", "--family", "sl", "--n", "20000"], 20000,
     "sl matrices of size 20000 exceed the matrix size cap 372"),
    (["bend"], 10 ** 4,
     "surface groups need genus >= 2 and within the genus cap 400, got 10000"),
    (["bend"], 10 ** 6,
     "surface groups need genus >= 2 and within the genus cap 400, got 1000000"),
]


@pytest.mark.parametrize("argv, size, message", _TOO_LARGE,
                         ids=["sl12", "sl200", "sl20000", "bend-g1e4", "bend-g1e6"])
def test_a_size_too_large_to_build_is_refused_in_1_gib(tmp_path, argv, size, message):
    """Each input exits 2 within 1 s in a child capped at 1 GiB of address
    space, with no traceback: `make_algebra` refuses n past
    MATRIX_SIZE_CAP and `fuchsian_generators` a genus past GENUS_CAP
    before they build anything (sl(20000) and genus 10**6 used to end in a
    MemoryError traceback after 5 and 49 s), and a huge |W| is printed by
    its digit count."""
    if argv[0] == "check":
        (tmp_path / "ah.json").write_text(json.dumps([[1, -1] + [0] * (size - 2)]))
        argv = argv + ["--ah", str(tmp_path / "ah.json")]
    else:
        (tmp_path / "plan.json").write_text(json.dumps(
            {"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": size}))
        argv = argv + ["--plan", str(tmp_path / "plan.json")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "liebend.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
    elapsed = time.perf_counter() - t0
    assert (done.returncode, done.stderr, done.stdout) == (2, f"input error: {message}\n", "")
    assert elapsed < 1.0, elapsed


# what a check holds across its passes over W: the torus, a_h, the report
CHECK_ALLOWANCE = 64 * 2 ** 10


def _check_stream_queries():
    """The check-stream pool of perfbench/workloads.py, read without
    writing into perfbench (tests/test_bench_interface.py checks that)."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_stream_queries(0)


def test_check_stream_queries_keep_within_the_chunk_bound():
    """Each query of the check-stream pool runs `cmd_check` within the
    exact lane's bound: a pass over W keeps at most WEYL_CHUNK_BYTES of
    scans and decision temporaries per chunk, plus one vector's gathered
    tail rows, at most 8 * coord_len bytes for each permutation of a chunk.
    A pass keeps at least 8 bytes per element, so a chunk holds at most
    WEYL_CHUNK_BYTES / 8 elements.  The check runs once before it is
    traced, so that the algebra, the torus and the chunk tables are built.
    A whole-W scan of the b basis and the staircase, or a chunk table sized
    by coord_len alone, passes the bound on sl(7): about 1.4 MiB for a
    3-dimensional a_h."""
    import math
    import tracemalloc

    from liebend.config import DEFAULT
    from liebend.report import _algebra_from_plan, cmd_check
    from liebend.weyl import WEYL_CHUNK_BYTES, split_torus
    peaks = {}
    for item, family, rows in _check_stream_queries():
        torus = split_torus(_algebra_from_plan(family, DEFAULT))
        n = torus.coord_len
        perms = min(math.factorial(n),
                    WEYL_CHUNK_BYTES // 8 // (torus.weyl_order // math.factorial(n)))
        bound = WEYL_CHUNK_BYTES + 8 * n * perms + CHECK_ALLOWANCE
        cmd_check(family, rows, DEFAULT)
        tracemalloc.start()
        try:
            cmd_check(family, rows, DEFAULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[item] = peak, bound
    assert len(peaks) == 25
    assert all(peak <= bound for peak, bound in peaks.values()), \
        {item: pb for item, pb in peaks.items() if pb[0] > pb[1]}


def test_g_even_allocates_less_than_the_basis(fresh_caches):
    """g_even reads Ad(sigma) off the basis supports: with the weights, sigma
    and the supports built, its peak allocation stays below one copy of the
    su(6,6) basis stack, which a dense conjugation of the stack would exceed."""
    import tracemalloc

    from liebend.algebra import make_algebra
    from liebend.sl2 import g_even, rho1_su
    alg = make_algebra("su", 6, 6)
    triple = rho1_su(alg)
    triple.basis_weights, triple.sigma, alg._support  # built before the count
    tracemalloc.start()
    try:
        g_even(triple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = alg.basis.nbytes
    assert peak < budget, (peak, budget)


def _count_linalg_calls(monkeypatch, names):
    """Wrap the public numpy.linalg functions whose names pass the filter;
    the returned list collects the name of each call."""
    import inspect

    import numpy as np
    seen = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name, value in vars(np.linalg).items():
        if (not name.startswith("_") and callable(value) and not inspect.isclass(value)
                and names(name)):
            monkeypatch.setattr(np.linalg, name, counting(name, value))
    return seen


def test_sec6_makes_no_linalg_call(monkeypatch, fresh_caches):
    """reproduce sec6 --p 3 --q 2 reads sigma, the even part and the
    centralizer count off exact weights: no numpy.linalg function runs."""
    from liebend.config import DEFAULT
    from liebend.report import cmd_reproduce_sec6
    seen = _count_linalg_calls(monkeypatch, lambda name: True)
    report = cmd_reproduce_sec6(3, 2, DEFAULT)
    assert seen == []
    assert report.checks[0].verdict["g_even_dim"] == 16


def test_bend_makes_no_eig_call(monkeypatch, fresh_caches):
    """The conjugator of each bent generator comes from the integer kernel:
    bending both presets and su(3,1) rho1 at genus 5, verified and not,
    calls no numpy.linalg eigensolver."""
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    seen = _count_linalg_calls(monkeypatch, lambda name: name.startswith("eig"))
    plans = [PRESETS["su21-rho1-g2"], PRESETS["sl5-even5-g4"],
             {"family": "su", "p": 3, "q": 1, "triple": "rho1", "genus": 5, "t": "auto"}]
    for plan in plans:
        for dps in (0, 40):
            report = cmd_bend(dict(plan, verify_dps=dps), DEFAULT)
            cert = next(c.verdict for c in report.checks if c.check_id == "bend/certificate")
            assert cert["verdict"] == "PASS"
    assert seen == []


# run in a fresh process: numpy.linalg is wrapped before liebend is imported,
# so a call made at import counts too
_LINALG_PROBE = """\
import inspect, json, sys
import numpy as np
seen = []

def counting(name, real):
    def wrapped(*args, **kwargs):
        seen.append(name)
        return real(*args, **kwargs)
    return wrapped

for name, value in list(vars(np.linalg).items()):
    if not name.startswith("_") and callable(value) and not inspect.isclass(value):
        setattr(np.linalg, name, counting(name, value))
import liebend.cli
calls = [("import", 0, list(seen))]
for i, argv in enumerate(json.loads(sys.argv[1])):
    del seen[:]
    rc = liebend.cli.main(argv + ["--out", f"{sys.argv[2]}/{i}.out"])
    calls.append((argv[0], rc, list(seen)))
print(json.dumps(calls))
"""


def test_exact_lane_processes_make_no_linalg_call(tmp_path):
    """Importing the CLI, reproduce sec53, reproduce sec6 and two checks
    call no numpy.linalg function, so these processes never page in
    LAPACK's solvers: the import used to invert the polygon's Cayley matrix
    with numpy.linalg.inv.  A float-only bend does call numpy.linalg, which
    shows that the wrapping sees the package's calls."""
    (tmp_path / "ah_sl5.json").write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    (tmp_path / "ah_su33.json").write_text(json.dumps([["1", "0", "0"], ["0", "1", "-1"]]))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2,
                                "verify_dps": 0}))
    runs = [["reproduce", "sec53"], ["reproduce", "sec6", "--p", "3", "--q", "2"],
            ["check", "--family", "sl", "--n", "5", "--ah", str(tmp_path / "ah_sl5.json"),
             "--witness"],
            ["check", "--family", "su", "--p", "3", "--q", "3", "--ah",
             str(tmp_path / "ah_su33.json"), "--witness"],
            ["bend", "--plan", str(plan)]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _LINALG_PROBE, json.dumps(runs), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout)
    assert [(cmd, rc) for cmd, rc, _ in calls] == [
        ("import", 0), ("reproduce", 0), ("reproduce", 0), ("check", 0), ("check", 0),
        ("bend", 0)]
    assert [seen for _, _, seen in calls[:-1]] == [[]] * 5
    assert calls[-1][2]
