"""The exact lane in bounded memory: `check --witness` on the two largest
Weyl groups the package admits runs in a child process whose address space
is capped at 512 MiB (`RLIMIT_AS`, set on the child only) with one BLAS
thread.  Importing the CLI alone takes about 231 MB of address space there;
building all of W for su(8,8) (|W| = 10,321,920) would take over 1 GB."""

import os
import resource
import subprocess
import sys
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
