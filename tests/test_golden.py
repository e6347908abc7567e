"""Byte-for-byte output of the documented CLI invocations.

The files in golden/ hold the exact stdout of the README commands and of the
calls in scripts/reproduce_figures.py, so a change that moves any printed
float by one bit fails here.  The two 801-line curve CSVs are stored as
SHA-256 digests of their bytes; the script itself is run once as well.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qgames.cli import main

GOLDEN = Path(__file__).parent / "golden"

PD_3501 = ("--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1")
CHICKEN_44 = ("--game", "chicken", "--r", "4", "--s", "4")

CASES = {
    "quantize_pd.txt": ("quantize", *PD_3501, "--gamma", "1.5707963"),
    "curve_pd_qvd.sha256": ("curve", *PD_3501, "--block", "QvD", "--gamma-steps", "200"),
    "curve_chicken_qvstraight.sha256": (
        "curve", *CHICKEN_44, "--block", "QvStraight", "--gamma-steps", "200",
    ),
    "transition_pd.txt": ("transition", *PD_3501),
    "transition_chicken.txt": ("transition", *CHICKEN_44),
    "oracle.txt": ("oracle", "--J", "-0.25", "--h", "1.75", "--beta", "2", "--N", "16",
                   "--seed", "7"),
}


def stdout_bytes(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # chicken with r == s warns by design
        code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


def assert_golden(name, out):
    golden = (GOLDEN / name).read_bytes()
    if name.endswith(".sha256"):
        assert hashlib.sha256(out).hexdigest() == golden.decode().strip()
    else:
        assert out == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_documented_invocation_bytes(name, capsys):
    assert_golden(name, stdout_bytes(capsys, CASES[name]))


def test_reproduce_figures_script(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_figures.py"), "--outdir", str(tmp_path)],
        env=env, capture_output=True, check=True,
    )
    for csv, digest in [("pd_qvd_magnetization.csv", "curve_pd_qvd.sha256"),
                        ("chicken_qvstraight_magnetization.csv", "curve_chicken_qvstraight.sha256")]:
        assert_golden(digest, (tmp_path / csv).read_bytes())
    for name in ("transition_pd.txt", "transition_chicken.txt"):
        assert (GOLDEN / name).read_bytes() in proc.stdout
