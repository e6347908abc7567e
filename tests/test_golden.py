"""Byte-for-byte output of the documented CLI invocations.

The files in golden/ hold the exact stdout of the README commands and of the
calls in scripts/reproduce_figures.py, so a change that moves any printed
float by one bit fails here.  The two 801-line curve CSVs are stored as
SHA-256 digests of their bytes; the script itself is run once as well, and
so is the README's Python example.

golden/invocations.sha256 holds one digest per group of 60 seeded
requests shaped as the benchmark's three workloads, over every argv, exit
code, stdout and stderr (and the scan group's API results).  A change that
moves those bytes on purpose updates the file from this module's output,
`PYTHONPATH=src python tests/test_golden.py`, and says why.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_chicken, random_pd
from qgames import extract_block, magnetization, mixed_nash_symmetric_2x2, to_ising
from qgames.catalog import _BLOCKS, GAMES
from qgames.cli import main
from qgames.eisert import GAMMA_RANGE

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


def test_readme_python_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "0.9867668811915064\n"


def invocation_digests():
    """The SHA-256 of each group's 60 requests, drawn from one seeded stream
    with pd and chicken alternating, every float given as `--name={value!r}`
    in one pair of requests and as `--name {value!r}` in the next (so that each
    negative value goes through the parse's dash-led value rule):
    `sweep` is `curve` at its defaults then `transition`; `scan` is `quantize`
    at one gamma plus each of the game's three blocks through extract_block ->
    to_ising -> magnetization -> mixed_nash_symmetric_2x2 (J, h, m and p as
    repr); `chain` is `oracle` at N=16 with enumeration, at N=512 with the
    transfer matrix alone and at N=128 with 400 Metropolis sweeps."""
    rng = np.random.default_rng([201, 0])
    hashes = {name: hashlib.sha256() for name in ("sweep", "scan", "chain")}

    def call(group, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        hashes[group].update(repr((argv, code, out.getvalue(), err.getvalue())).encode())

    def number(name, value):
        return [f"--{name}", repr(value)] if i // 2 % 2 else [f"--{name}={value!r}"]

    for i in range(60):
        game = ("pd", "chicken")[i % 2]
        payoffs = random_pd(rng) if game == "pd" else random_chicken(rng)
        flags = ["--game", game] + [tok for f in dataclasses.fields(payoffs)
                                    for tok in number(f.name, getattr(payoffs, f.name))]
        call("sweep", "curve", *flags, "--block", GAMES[game].transition_block.value)
        call("sweep", "transition", *flags)

        gamma, beta = rng.uniform(*GAMMA_RANGE), rng.uniform(0.5, 5.0)
        call("scan", "quantize", *flags, *number("gamma", gamma))
        for block_id, row in _BLOCKS.items():
            if row.game == game:
                block = extract_block(game, payoffs, block_id, gamma)
                ip = to_ising(block, beta)
                mixed = mixed_nash_symmetric_2x2(block.as_game())
                results = (ip.J, ip.h, magnetization(ip), None if mixed is None else mixed.p)
                hashes["scan"].update(repr(results).encode())

        J, h, beta = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 5.0)
        point = ("oracle", *number("J", J), *number("h", h), *number("beta", beta))
        call("chain", *point, "--N", "16", "--no-metropolis")
        call("chain", *point, "--N", "512", "--no-enumeration", "--no-metropolis")
        J, h, beta = rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        call("chain", "oracle", *number("J", J), *number("h", h), *number("beta", beta),
             "--N", "128", "--sweeps", "400", "--burn-in", "40", "--seed", str(i),
             "--no-enumeration")
    return "".join(f"{digest.hexdigest()}  {name}\n" for name, digest in hashes.items())


def test_benchmark_shaped_invocations_keep_their_bytes():
    assert invocation_digests() == (GOLDEN / "invocations.sha256").read_text()


if __name__ == "__main__":
    print(invocation_digests(), end="")
