import contextlib
import dataclasses
import io
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    classical_magnetization,
    mpmath_finite_magnetization,
    numpy_magnetization,
    numpy_to_ising,
    random_chicken,
    random_pd,
)
from qgames import Block, IsingParams, cli, couplings, extract_block, magnetization, oracle
from qgames import BimatrixGame, pure_nash, quantized_game
from qgames.catalog import _BLOCKS, GAMES
from qgames.cli import main
from qgames.eisert import check_gamma
from qgames.errors import ConsistencyError, ResourceLimitError, ValidationError
from test_golden import CASES, GOLDEN, assert_golden, stdout_bytes
from test_perfbench import perfbench  # noqa: F401  (fixture)

GAMMA_HALF_PI = "1.5707963"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cells_of(table_text):
    return [
        (float(a), float(b))
        for a, b in re.findall(r"\(([-+0-9.e]+), ([-+0-9.e]+)\)", table_text)
    ]


def ljust_quantize_text(kind, gamma, game):
    """quantize's stdout as its f-string and `ljust` code once wrote it, one cell at a time:
    the reference for the bytes of its %-formatted table."""
    lines = [f"quantized payoff matrix  game={kind}  gamma={gamma:.17g} rad"]
    width = 22
    lines.append(" " * 10 + "".join(lab.ljust(width) for lab in game.labels))
    for lab, row, col in zip(game.labels, game.row.tolist(), game.row.T.tolist()):
        cells = "".join(f"({r:.10g}, {c:.10g})".ljust(width - 1) + " " for r, c in zip(row, col))
        lines.append(lab.ljust(10) + cells)
    named = ", ".join("(%s, %s)" % game.label_cell(c) for c in pure_nash(game)) or "none"
    lines.append(f"pure Nash equilibria: {named}")
    return "\n".join(lines) + "\n"


class TestQuantize:
    def test_pd_maximal_entanglement_matches_reference_matrix(self, capsys):
        code, out, _ = run(
            capsys, "quantize", "--game", "pd", "--r", "3", "--t", "5",
            "--s", "0", "--p", "1", "--gamma", GAMMA_HALF_PI,
        )
        assert code == 0
        expected = [(3, 3), (0, 5), (1, 1), (5, 0), (1, 1), (0, 5), (1, 1), (5, 0), (3, 3)]
        got = cells_of(out)
        assert len(got) == 9
        for (ra, ca), (rb, cb) in zip(got, expected):
            assert ra == pytest.approx(rb, abs=1e-6)
            assert ca == pytest.approx(cb, abs=1e-6)
        assert "pure Nash equilibria: (Q, Q)" in out

    def test_chicken_no_entanglement_duplicates_swerve(self, capsys):
        code, out, _ = run(
            capsys, "quantize", "--game", "chicken", "--r", "3", "--s", "4",
            "--gamma", "0",
        )
        assert code == 0
        cells = cells_of(out)
        assert len(cells) == 9
        # classical 2x2 sector embedded in the top-left corner
        assert cells[0] == (0.0, 0.0)    # (swerve, swerve)
        assert cells[1] == (-3.0, 3.0)   # (swerve, straight)
        assert cells[3] == (3.0, -3.0)   # (straight, swerve)
        assert cells[4] == (-4.0, -4.0)  # (straight, straight)
        # the quantum row duplicates the swerve row at gamma=0
        assert cells[6:9] == cells[0:3]

    def test_cells_of_22_characters_or_more_keep_a_separator(self, capsys):
        code, out, _ = run(
            capsys, "quantize", "--game", "chicken", "--r", "3", "--s", "4", "--gamma", "0.7",
        )
        assert code == 0
        rows = out.splitlines()[2:5]
        assert [row.split()[0] for row in rows] == ["swerve", "straight", "Q"]
        for row in rows:
            assert re.fullmatch(r"\w+ +(\([^ ()]+, [^ ()]+\) +){3}", row), row

    @pytest.mark.parametrize("kind", ["pd", "chicken"])
    def test_table_bytes_match_the_ljust_formatter(self, capsys, kind):
        rng = np.random.default_rng([49, len(kind)])
        for _ in range(30):
            payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng)
            gamma = float(rng.uniform(0.0, math.pi / 2))
            flags = [f"--{k}={v!r}" for k, v in dataclasses.asdict(payoffs).items()]
            code, out, _ = run(capsys, "quantize", "--game", kind, *flags, f"--gamma={gamma!r}")
            assert code == 0
            assert out == ljust_quantize_text(kind, gamma, quantized_game(kind, payoffs, gamma))

    def test_short_long_and_negative_zero_cells_match_the_ljust_formatter(self, capsys,
                                                                         monkeypatch):
        # cells one under the 22-character column, at it and past it, and a -0 one
        tiny = -1.234567891e-300
        row = np.array([[-0.0, 1234567.5, 1234567.5], [12345678.0, 2.25, tiny],
                        [-12345678.0, 0.1, tiny]])
        game = BimatrixGame(row, ("C", "D", "Q"))
        monkeypatch.setattr(cli, "quantized_game", lambda kind, payoffs, gamma: game)
        code, out, _ = run(capsys, "quantize", *PD_FLAGS, "--gamma", "0.5")
        assert code == 0 and out == ljust_quantize_text("pd", 0.5, game)
        cells = re.findall(r"\([^()]*\)", "".join(out.splitlines()[2:5]))
        assert cells[0] == "(-0, -0)"
        assert sorted({len(c) for c in cells}) == [8, 12, 21, 22, 24, 38]

    def test_no_pure_nash_cell_prints_none(self, capsys, monkeypatch):
        # no PD or chicken table is known to lack a pure Nash cell, so the line is forced
        argv = ("quantize", *PD_FLAGS, "--gamma", "0.5")
        table = run(capsys, *argv)[1].splitlines(keepends=True)[:-1]
        monkeypatch.setattr(cli, "pure_nash", lambda game: [])
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "".join(table) + "pure Nash equilibria: none\n"

    def test_oracle_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.oracle, "transfer_matrix_finite", lambda spec: 0.123)
        code, _, err = run(
            capsys, "oracle", "--J", "0", "--h", "1", "--beta", "1", "--N", "8",
            "--no-metropolis", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 3
        assert "internal consistency failure" in err

    def test_invalid_payoffs_exit_2_and_name_the_constraint(self, capsys):
        code, _, err = run(
            capsys, "quantize", "--game", "pd", "--r", "1", "--t", "1",
            "--s", "0", "--p", "0.5", "--gamma", "0.3",
        )
        assert code == 2
        assert "t > r violated" in err

    def test_gamma_degrees_conversion(self, capsys):
        _, out_rad, _ = run(
            capsys, "quantize", "--game", "pd", "--r", "3", "--t", "5",
            "--s", "0", "--p", "1", "--gamma", str(math.radians(45.0)),
        )
        _, out_deg, _ = run(
            capsys, "quantize", "--game", "pd", "--r", "3", "--t", "5",
            "--s", "0", "--p", "1", "--gamma-degrees", "45",
        )
        assert cells_of(out_deg) == cells_of(out_rad)

    def test_negative_exponent_value_after_a_space(self, capsys):
        # argparse's own pattern would read "-2e-05" as an option
        base = ("quantize", "--game", "pd", "--r", "3", "--t", "5", "--p", "1", "--gamma", "0.5")
        spaced = run(capsys, *base, "--s", "-2e-05")
        joined = run(capsys, *base, "--s=-2e-05")
        assert spaced[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize("game, flags", [
        ("pd", ("--r", "3", "--t", "5", "--p", "1")),
        ("chicken", ("--r", "3")),
    ])
    def test_non_finite_payoff_after_a_space_reaches_validation(self, capsys, game, flags):
        code, out, err = run(capsys, "quantize", "--game", game, *flags, "--s", "-inf",
                             "--gamma", "0.5")
        assert (code, out) == (2, "")
        assert "payoffs must be finite" in err

    def test_chicken_rejects_pd_only_flags(self, capsys):
        code, _, err = run(
            capsys, "quantize", "--game", "chicken", "--r", "3", "--s", "4",
            "--t", "5", "--gamma", "0.5",
        )
        assert code == 2
        assert "--r and --s only" in err


class TestCurve:
    def test_csv_shape_and_ordering(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--block", "QvD", "--gamma-steps", "40",
            "--output", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["gamma", "beta", "J", "h", "m"]
        assert len(rows) == 40 * 4  # default beta grid {0.5, 1, 2, 5}
        gammas = [float(r[0]) for r in rows]
        betas = [float(r[1]) for r in rows]
        assert gammas == sorted(gammas)  # gamma-major
        assert betas[:4] == [0.5, 1.0, 2.0, 5.0]
        assert out_file.read_bytes().count(b"\r") == 0  # LF endings

    def test_values_round_trip_to_exact_binary(self, tmp_path, capsys):
        from qgames import Block, PDPayoffs, extract_block, magnetization, to_ising

        out_file = tmp_path / "curve.csv"
        run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--block", "QvD", "--gamma-steps", "7", "--beta", "1.3",
            "--output", str(out_file),
        )
        _, rows = read_csv(out_file)
        payoffs = PDPayoffs(3, 5, 0, 1)
        for row in rows:
            gamma, beta, J, h, m = map(float, row)
            ip = to_ising(extract_block("pd", payoffs, Block.QVD, gamma), beta)
            assert (J, h) == (ip.J, ip.h)
            assert m == magnetization(ip)

    def test_sign_change_brackets_transition_for_every_beta(self, tmp_path, capsys):
        from qgames import PDPayoffs, phase_transition_gamma

        out_file = tmp_path / "curve.csv"
        run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--block", "QvD", "--gamma-steps", "200",
            "--beta", "0.5,1,2,5,50", "--output", str(out_file),
        )
        _, rows = read_csv(out_file)
        gamma_star, _ = phase_transition_gamma("pd", PDPayoffs(3, 5, 0, 1), "QvD")
        by_beta = {}
        for row in rows:
            by_beta.setdefault(row[1], []).append((float(row[0]), float(row[4])))
        assert len(by_beta) == 5
        for samples in by_beta.values():
            crossings = [
                (g1, g2)
                for (g1, m1), (g2, m2) in zip(samples, samples[1:])
                if m1 < 0 <= m2 or m1 <= 0 < m2
            ]
            assert len(crossings) == 1
            lo, hi = crossings[0]
            assert lo <= gamma_star <= hi

    def test_zero_entanglement_matches_classical_formula(self, capsys):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = random_pd(rng)
            beta = rng.uniform(0.05, 5.0)
            flags = [f"--{k}={v!r}" for k, v in vars(p).items()]
            code, out, _ = run(
                capsys, "curve", "--game", "pd", *flags, "--block", "QvD",
                "--gamma-start", "0", "--gamma-stop", "0", "--gamma-steps", "1",
                f"--beta={beta!r}",
            )
            assert code == 0
            (row,) = out.splitlines()[1:]
            expected = classical_magnetization(beta, (p.r + p.p - p.t - p.s) / 4,
                                               (p.r + p.s - p.t - p.p) / 4)
            assert float(row.split(",")[4]) == pytest.approx(expected, abs=1e-12)

    def test_zero_beta_curve_vanishes(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
            "--block", "QvD", "--gamma-steps", "50", "--beta", "0",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 50
        assert all(float(row.split(",")[4]) == 0.0 for row in rows)

    def test_zero_field_block_emits_zero_column(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--block", "QvC", "--gamma-steps", "25",
            "--output", str(out_file),
        )
        _, rows = read_csv(out_file)
        assert all(float(r[4]) == 0.0 for r in rows)
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_identical_config_is_byte_identical(self, tmp_path, capsys):
        args = (
            "curve", "--game", "chicken", "--r", "3", "--s", "4",
            "--block", "QvStraight", "--gamma-steps", "31",
        )
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--output", str(f1))
        run(capsys, *args, "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_zero_m_carries_the_sign_of_h_at_negative_zero_beta(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
            "--block", "QvD", "--gamma-steps", "2", "--beta=-0,0",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["-0", "0", "-0", "0"]
        for _, _, _, h, m in rows:
            assert float(m) == 0.0
            assert math.copysign(1.0, float(m)) == math.copysign(1.0, float(h))

    def test_rows_are_each_column_at_17_digits(self, capsys):
        # signed zero, a subnormal and extreme betas, each formatted on its own
        from qgames import IsingParams, PDPayoffs, couplings, magnetization

        betas = (0.0, -0.0, 2e-320, 7.0, 1e300)
        code, out, _ = run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--block", "QvD", "--beta", "0,-0.0,2e-320,7,1e300",
        )
        assert code == 0
        grid = np.linspace(0.0, math.pi / 2, 200)
        stacked = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, grid)
        want = ["gamma,beta,J,h,m"]
        for g, (J, h) in zip(grid.tolist(), couplings(stacked)):
            for beta in betas:
                m = magnetization(IsingParams(J, h, beta))
                want.append(",".join("%.17g" % v for v in (g, beta, J, h, m)))
        got = out.splitlines()
        assert len(got) == len(want) == 1 + 200 * 5
        for got_row, want_row in zip(got, want):
            assert got_row == want_row

    @pytest.mark.parametrize(
        "game,block",
        [("pd", b) for b in (Block.QVC, Block.QVD, Block.CLASSICAL_PD)]
        + [("chicken", b) for b in (Block.QVSWERVE, Block.QVSTRAIGHT, Block.CLASSICAL_CHICKEN)],
    )
    def test_rows_match_numpy_scalar_reference(self, capsys, game, block):
        # each row must carry the bits of the NumPy-scalar to_ising and the
        # np.logaddexp magnetization, formatted one field at a time
        rng = np.random.default_rng(list(Block).index(block))
        for _ in range(3):
            payoffs = random_pd(rng) if game == "pd" else random_chicken(rng)
            start = rng.uniform(0.0, 0.6)
            stop = rng.uniform(0.9, math.pi / 2)
            steps = int(rng.integers(2, 40))
            flags = [f"--{k}={v!r}" for k, v in vars(payoffs).items()]
            code, out, _ = run(
                capsys, "curve", "--game", game, *flags, "--block", block.value,
                f"--gamma-start={start!r}", f"--gamma-stop={stop!r}",
                "--gamma-steps", str(steps), "--beta=-0,0,0.5,5",
            )
            assert code == 0
            grid = np.linspace(start, stop, steps)
            want = ["gamma,beta,J,h,m"]
            for g in grid:
                J, h = numpy_to_ising(extract_block(game, payoffs, block, float(g)))
                for beta in (-0.0, 0.0, 0.5, 5.0):
                    m = numpy_magnetization(J, h, beta)
                    want.append(",".join(format(v, ".17g") for v in (g, beta, J, h, m)))
            assert out.splitlines() == want

    @pytest.mark.parametrize("steps", [10**12, 262145])  # 262145 x 4 betas: just above 2**20
    def test_grid_above_the_row_bound_exits_2_before_it_is_built(self, capsys, monkeypatch, steps):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, out, err = run(
            capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
            "--block", "QvD", "--gamma-steps", str(steps),
        )
        assert (code, out) == (2, "")
        assert err == (f"error: curve takes gamma steps x betas up to 1048576 rows, "
                       f"got {steps} x 4\n")

    def test_row_bound_counts_gamma_steps_times_betas(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CURVE_ROWS", 8)
        argv = ("curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
                "--block", "QvD", "--beta", "1,2,3,4")
        code, out, _ = run(capsys, *argv, "--gamma-steps", "2")
        assert (code, len(out.splitlines())) == (0, 1 + 8)
        code, out, err = run(capsys, *argv, "--gamma-steps", "3")
        assert (code, out) == (2, "")
        assert "up to 8 rows, got 3 x 4" in err

    def test_bad_grid_exits_2(self, capsys):
        for flags, message in [
            (("--gamma-stop", "3.5"), "outside [0.0, 1.5707963267948966]"),
            (("--gamma-stop", "1.5707964"), "gamma=1.5707964 outside [0.0, 1.5707963267948966]"),
            (("--gamma-start", "nan"), "gamma=nan outside [0.0, 1.5707963267948966]"),
            (("--gamma-start", "1", "--gamma-stop", "0.5"), "gamma grid must be strictly increasing"),
            (("--gamma-steps", "0"), "--gamma-steps must be >= 1"),
        ]:
            code, out, err = run(
                capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
                "--p", "1", "--block", "QvD", *flags,
            )
            assert code == 2
            assert out == ""
            assert message in err


    @pytest.mark.parametrize("steps, start, stop", [
        ("1", "-1", "-inf"), ("3", "0", "inf"), ("3", "-1.7e308", "1.7e308"),
    ])
    def test_huge_or_infinite_grid_end_gives_one_error_line(self, capsys, steps, start, stop):
        # linspace meets inf - inf or an overflow there; its NumPy warning
        # would print before the range error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "curve", "--game", "chicken", "--r", "1", "--s", "2",
                "--block", "QvSwerve", "--gamma-steps", steps,
                "--gamma-start", start, "--gamma-stop", stop,
            )
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]*\n", err), err

    @pytest.mark.parametrize("flags, named", [
        (("--gamma-start", "-1", "--gamma-stop", "-inf"), "-1.0"),
        (("--gamma-stop", "inf"), "inf"),
        (("--gamma-start", "-1.7e308", "--gamma-stop", "1.7e308"), "-1.7e+308"),
        (("--gamma-steps", "1", "--gamma-start", "-1", "--gamma-stop", "-inf"), "-1.0"),
        (("--gamma-stop", "3.5"), "3.5"),
    ])
    def test_an_end_outside_the_range_is_named_as_given(self, capsys, flags, named):
        code, out, err = run(capsys, "curve", "--game", "chicken", "--r", "1", "--s", "2",
                             "--block", "QvSwerve", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: gamma={named} outside [0.0, 1.5707963267948966]\n"

    @pytest.mark.parametrize("stop", ["5", "inf", "-inf", "nan", "1e400"])
    def test_one_step_takes_only_the_start(self, capsys, stop):
        # a one-step grid is its start; an out-of-range stop, even a non-finite one, is never used
        code, out, err = run(capsys, "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
                             "--p", "1", "--block", "QvD", "--beta", "1", "--gamma-steps", "1",
                             "--gamma-start", "0.5", "--gamma-stop", stop)
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == ["gamma", "0.5"]

    @pytest.mark.parametrize("game, flags, block", [
        ("chicken", ("--r", "1e308", "--s", "1.5e308"), "QvStraight"),
        ("pd", ("--r", "1e308", "--t", "1.7e308", "--s", "-1.7e308", "--p", "0"), "QvD"),
    ])
    def test_payoffs_near_the_float64_maximum_give_finite_rows(self, capsys, game, flags, block):
        # (a - c) + (b - d) overflows there; the quarter payoffs give the pair
        code, out, err = run(capsys, "curve", "--game", game, *flags, "--block", block,
                             "--gamma-steps", "3")
        assert (code, err) == (0, "")
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 3 * len(cli.DEFAULT_BETAS)
        assert all(math.isfinite(x) for row in rows for x in row)
        assert all(-1.0 <= row[4] <= 1.0 for row in rows)


def reference_curve(args) -> int:
    """`cli.cmd_curve` with the row loop it had before `ising.curve_rows`: one checked
    IsingParams, one `magnetization` call and one f-string per row."""
    payoffs = cli._payoffs_from(args)
    betas = cli._parse_betas(args.beta)
    if args.gamma_steps < 1:
        raise ValidationError("--gamma-steps must be >= 1")
    if args.gamma_steps * len(betas) > cli.MAX_CURVE_ROWS:
        raise ResourceLimitError(f"curve takes gamma steps x betas up to {cli.MAX_CURVE_ROWS} "
                                 f"rows, got {args.gamma_steps} x {len(betas)}")
    ends = check_gamma([args.gamma_start, args.gamma_stop][: args.gamma_steps])
    grid = np.linspace(ends[0], ends[-1], args.gamma_steps)
    stacked = extract_block(args.game, payoffs, args.block, grid)
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("gamma grid must be strictly increasing")
    lines = ["gamma,beta,J,h,m"]
    beta_cols = [(b, f"{b:.17g}") for b in betas]
    for g, (J, h) in zip(grid.tolist(), couplings(stacked)):
        gamma_col, jh_cols = f"{g:.17g}", f"{J:.17g},{h:.17g}"
        for b, beta_col in beta_cols:
            m = magnetization(IsingParams(J, h, b))
            lines.append(f"{gamma_col},{beta_col},{jh_cols},{m:.17g}")
    cli._emit(args.output, lines)
    return 0


def main_outputs(argv):
    """Exit code, stdout and stderr of one in-process `qgames` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_outputs(argv):
    """`main_outputs` of argv with `reference_curve` as the curve subcommand."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(cli.build_parser().subcommands["curve"]._defaults, "func", reference_curve)
        return main_outputs(argv)


CURVE_PAYOFFS = {
    "pd": [("3", "5", "0", "1"), ("0.3", "2.5", "-1", "0"), ("1e308", "1.7e308", "-1.7e308", "0")],
    "chicken": [("3", "4"), ("1", "1e300"), ("1e308", "1.5e308")],
}
EDGE_BETAS = ["-0.0", "0", "5e-324", "1e-300", "0.5", "1", "20", "1e300",
              "1.7976931348623157e+308", "nan", "inf", "-inf", "-1"]


@st.composite
def curve_argvs(draw):
    game = draw(st.sampled_from(sorted(GAMES)))
    names = [f.name for f in dataclasses.fields(GAMES[game].payoffs)]
    payoffs = draw(st.sampled_from(CURVE_PAYOFFS[game]))
    block = draw(st.sampled_from([b.value for b, row in _BLOCKS.items()
                                  if row.game == game]))
    # one or two of the last eight betas (half of them bad) among good ones, so a bad beta
    # is often not first and two bad ones must raise the message of the first
    betas = draw(st.lists(st.sampled_from(EDGE_BETAS[:9]), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 2))):
        betas.insert(draw(st.integers(0, len(betas))), draw(st.sampled_from(EDGE_BETAS[5:])))
    ends = draw(st.sampled_from([("0", "1.5707963267948966"), ("0.3", "0.31"), ("0", "0"),
                                 ("1e-300", "1"), ("1.2", "0.4")]))
    steps = draw(st.sampled_from(["1", "2", "3", "17"]))
    return (["curve", "--game", game, *(f"--{k}={v}" for k, v in zip(names, payoffs)),
             "--block", block, "--beta=" + ",".join(betas), "--gamma-start", ends[0],
             "--gamma-stop", ends[1], "--gamma-steps", steps])


def test_curve_lines_print_each_J_as_fmt_does():
    # J is formatted once per bit pattern: a memo keyed on the value would print -0.0 as 0
    Js = [0.0, -0.0, -0.25, 0.0, -0.0, -0.25, 0.1, math.nextafter(0.1, 1.0), -0.0, 5e-324,
          -5e-324, 0.1, -0.25, 1e300]
    pairs = [(J, k / 3) for k, J in enumerate(Js)]
    gammas, betas = [k / 7 for k in range(len(Js))], (0.5, -0.0, 2.0)
    ms = [k / 11 - 1 for k in range(len(Js) * len(betas))]
    lines = cli._curve_lines([cli._fmt(g) for g in gammas], pairs, ms, betas)
    assert [line.split(",")[2] for line in lines[1:]] == [cli._fmt(J) for J in Js for _ in betas]
    m = iter(ms)
    assert lines == ["gamma,beta,J,h,m"] + [",".join(map(cli._fmt, (g, b, J, h, next(m))))
                                            for g, (J, h) in zip(gammas, pairs) for b in betas]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(curve_argvs())
@example(["curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
          "--block", "QvD"])
def test_curve_bytes_match_the_row_loop(argv):
    got = main_outputs(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(cli.build_parser().subcommands["curve"]._defaults, "func", reference_curve)
        want = main_outputs(argv)
    assert got == want


PD_CURVE = ("curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1")


class TestGammaAxisCache:
    """`cli._gamma_axis` holds each grid's axis for the process; every run, cold or warm,
    prints the row loop's bytes and raises its errors in the row loop's order."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        cli._gamma_axis.cache_clear()
        yield
        cli._gamma_axis.cache_clear()

    def assert_runs_match(self, *argvs):
        for argv in argvs:
            assert main_outputs(list(argv)) == reference_outputs(list(argv)), argv

    def test_a_warm_curve_is_the_cold_one(self):
        argv = PD_CURVE + ("--block", "QvD")
        self.assert_runs_match(argv, argv)
        assert cli._gamma_axis.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("steps", ["1", "3", "200"])
    @pytest.mark.parametrize("first, second", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_a_signed_zero_start_after_the_other(self, steps, first, second):
        argv = PD_CURVE + ("--block", "QvC", "--beta", "1,-0.0", "--gamma-steps", steps)
        self.assert_runs_match(*(argv + ("--gamma-start", start) for start in
                                 (first, second, first, second)))

    def test_a_one_step_grid_after_a_longer_one_from_the_same_ends(self):
        argv = PD_CURVE + ("--block", "QvD", "--gamma-start", "0.5", "--gamma-stop", "1")
        self.assert_runs_match(*(argv + ("--gamma-steps", steps) for steps in "21212"))

    def test_a_decreasing_grid_raises_after_a_wrong_block_cold_and_warm(self):
        grid = ("--gamma-start", "1", "--gamma-stop", "0.5", "--gamma-steps", "3")
        wrong, right = (PD_CURVE + ("--block", block) + grid for block in ("QvSwerve", "QvD"))
        self.assert_runs_match(wrong, right, wrong, right)
        assert main_outputs(list(wrong))[::2] == (
            2, "error: block QvSwerve belongs to game kind 'chicken'\n")
        assert main_outputs(list(right))[::2] == (
            2, "error: gamma grid must be strictly increasing\n")

    def test_a_grid_above_the_cached_run_length_is_not_kept(self):
        longest = cli._CACHED_GAMMAS  # the longest grid eisert caches a run of
        argv = PD_CURVE + ("--block", "QvD", "--beta", "1")
        self.assert_runs_match(argv + ("--gamma-steps", str(longest + 1)))
        assert cli._gamma_axis.cache_info().currsize == 0
        self.assert_runs_match(argv + ("--gamma-steps", str(longest)))
        assert cli._gamma_axis.cache_info().currsize == 1

    def test_the_cached_grid_is_read_only(self):
        grid, column, increasing = cli._gamma_axis(np.array([0.0, 1.0]).tobytes(), 3)
        assert not grid.flags.writeable
        assert (column, increasing) == (["0", "0.5", "1"], True)


class TestTransition:
    def test_pd_reference_report(self, capsys):
        code, out, _ = run(
            capsys, "transition", "--game", "pd", "--r", "3", "--t", "5",
            "--s", "0", "--p", "1",
        )
        assert code == 0
        analytic = float(re.search(r"analytic gamma\*:\s+(\S+)", out).group(1))
        numeric = float(re.search(r"bisection gamma\*:\s+(\S+)", out).group(1))
        assert analytic == pytest.approx(0.5796397403637043, abs=1e-9)
        assert abs(analytic - numeric) <= 1e-9

    def test_help_names_each_games_default_block(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transition", "--help"])
        assert exc.value.code == 0
        # argparse wraps help to the terminal width
        assert "--block {QvC,QvD,QvSwerve,QvStraight,ClassicalPD,ClassicalChicken} " \
               "defaults to QvD for pd, QvStraight for chicken --output" \
               in " ".join(capsys.readouterr().out.split())

    def test_bisection_runs_once(self, capsys, monkeypatch):
        from qgames import ising

        calls = []
        bisect = ising.phase_transition_bisect

        def counted(*args, **kwargs):
            calls.append(args)
            return bisect(*args, **kwargs)

        monkeypatch.setattr(ising, "phase_transition_bisect", counted)
        code, out, _ = run(
            capsys, "transition", "--game", "pd", "--r", "3", "--t", "5",
            "--s", "0", "--p", "1",
        )
        assert code == 0
        assert len(calls) == 1
        assert "bisection gamma*" in out

    def test_chicken_equal_payoffs_hits_pi_over_6(self, capsys):
        with pytest.warns(UserWarning):
            code, out, _ = run(
                capsys, "transition", "--game", "chicken", "--r", "4", "--s", "4",
            )
        assert code == 0
        analytic = float(re.search(r"analytic gamma\*:\s+(\S+)", out).group(1))
        assert analytic == pytest.approx(math.pi / 6, abs=1e-9)

    def test_block_of_the_other_game_exits_2(self, capsys):
        code, out, err = run(
            capsys, "transition", "--game", "chicken", "--r", "3", "--s", "4", "--block", "QvD",
        )
        assert code == 2
        assert out == ""
        assert "block QvD belongs to game kind 'pd'" in err

    def test_no_transition_reports_none(self, capsys):
        code, out, _ = run(
            capsys, "transition", "--game", "chicken", "--r", "1", "--s", "3",
        )
        assert code == 0
        assert "transition: none" in out

    @pytest.mark.parametrize("flags, analytic", [
        (("--game", "chicken", "--r", "1e308", "--s", "1.5e308"), "0.36136712390670783"),
        (("--game", "pd", "--r", "1e308", "--t", "1.7e308", "--s", "-1.7e308", "--p", "0"),
         "0.63613206280501022"),
    ])
    def test_payoffs_near_the_float64_maximum(self, capsys, flags, analytic):
        # 2 r and t - s overflow in the closed forms, the field's sums in the bisection
        code, out, err = run(capsys, "transition", *flags)
        assert (code, err) == (0, "")
        assert re.search(r"analytic gamma\*:\s+(\S+)", out).group(1) == analytic
        numeric = float(re.search(r"bisection gamma\*:\s+(\S+)", out).group(1))
        assert abs(float(analytic) - numeric) <= 1e-9


    @pytest.mark.parametrize("flags, ratio, warned", [
        (("--game", "pd", "--r", "3e-320", "--t", "5e-320", "--s", "0", "--p", "1e-320"),
         lambda r, t, s, p: (r - p) / (t - s), 0),
        (("--game", "pd", "--r", "3e-315", "--t", "5e-315", "--s", "0", "--p", "1e-315"),
         lambda r, t, s, p: (r - p) / (t - s), 0),
        (("--game", "chicken", "--r", "3e-320", "--s", "5e-320"), lambda r, s: s / r / 2, 0),
        (("--game", "chicken", "--r", "5e-324", "--s", "5e-324"), lambda r, s: s / r / 2, 1),
    ])
    def test_subnormal_payoffs_agree(self, capsys, flags, ratio, warned):
        # gamma* depends only on payoff ratios, which both routes read from payoffs scaled
        # to order 1; from the subnormal payoffs themselves they missed the 1e-9 gate
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "transition", *flags)
        assert (code, err) == (0, "")
        assert len(caught) == warned  # chicken's s == r warns once, not again when scaled
        analytic = float(re.search(r"analytic gamma\*:\s+(\S+)", out).group(1))
        numeric = float(re.search(r"bisection gamma\*:\s+(\S+)", out).group(1))
        exact = ratio(*(Fraction(float(v)) for v in flags[3::2]))
        assert analytic == pytest.approx(0.5 * math.acos(exact), abs=1e-15)
        assert abs(analytic - numeric) <= 1e-9

    def test_payoffs_a_unit_scaling_would_round_are_used_as_given(self, capsys):
        # p scaled with t to order 1 would round to s = 0 and break p > s
        code, out, err = run(capsys, "transition", "--game", "pd", "--r", "1e300",
                             "--t", "2e300", "--s", "0", "--p", "1e-320")
        assert (code, err) == (0, "")
        assert "analytic gamma*:  0.52359877559829893\n" in out


class TestPayoffFlags:
    """Each game kind's payoff flags and its default transition block."""

    @pytest.mark.parametrize("argv, message", [
        (("curve", "--game", "pd", "--r", "3", "--block", "QvD"),
         "game pd needs --r --t --s --p (missing: ['t', 's', 'p'])"),
        (("transition", "--game", "chicken", "--r", "3"),
         "game chicken needs --r --s (missing: ['s'])"),
        (("transition", "--game", "chicken", "--r", "3", "--s", "4", "--t", "1"),
         "game chicken takes --r and --s only (got --t)"),
        (("transition", "--game", "chicken", "--r", "3", "--s", "4", "--p", "1"),
         "game chicken takes --r and --s only (got --p)"),
    ])
    def test_wrong_flags_exit_2_with_the_exact_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, first_line", [
        (("--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1"),
         "game=pd  block=QvD"),
        (("--game", "chicken", "--r", "3", "--s", "4"), "game=chicken  block=QvStraight"),
    ])
    def test_transition_without_block_uses_the_game_default(self, capsys, argv, first_line):
        code, out, _ = run(capsys, "transition", *argv)
        assert code == 0
        assert out.splitlines()[0] == first_line

    @pytest.mark.parametrize("kind", tuple(GAMES))
    def test_each_games_row_fits_its_kind_and_the_cli_flags(self, kind):
        row = GAMES[kind]
        assert _BLOCKS[row.transition_block].game == kind
        # _payoffs_from reads the flags from __match_args__: the dataclass's fields in order
        assert row.payoffs.__match_args__ == tuple(f.name for f in dataclasses.fields(row.payoffs))
        names = {f.name for f in dataclasses.fields(row.payoffs)}
        assert names <= {"r", "t", "s", "p"}
        assert names <= vars(cli.build_parser().parse_args(["transition", "--game", kind])).keys()


class TestOracle:
    def test_reference_point_rows(self, tmp_path, capsys):
        out_file = tmp_path / "oracle.csv"
        code, _, _ = run(
            capsys, "oracle", "--J", "-0.25", "--h", "1.75", "--beta", "2",
            "--N", "16", "--seed", "7", "--sweeps", "20000", "--burn-in", "2000",
            "--output", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["N", "method", "m", "std_error"]
        methods = [r[1] for r in rows]
        assert methods == ["enumeration", "transfer_matrix", "metropolis", "closed_form"]
        values = {r[1]: float(r[2]) for r in rows}
        assert abs(values["enumeration"] - values["transfer_matrix"]) <= 1e-10
        assert values["closed_form"] == pytest.approx(0.9867668811915064, abs=1e-12)
        se = float(rows[2][3])
        assert abs(values["metropolis"] - values["transfer_matrix"]) <= 5 * se

    def test_decoupled_point_all_methods_near_tanh(self, tmp_path, capsys):
        out_file = tmp_path / "oracle.csv"
        code, _, _ = run(
            capsys, "oracle", "--J", "0", "--h", "1", "--beta", "1", "--N", "8",
            "--sweeps", "20000", "--burn-in", "2000", "--seed", "1",
            "--output", str(out_file),
        )
        assert code == 0
        _, rows = read_csv(out_file)
        for row in rows:
            assert float(row[2]) == pytest.approx(math.tanh(1.0), abs=0.02)

    def test_negative_exponent_value_after_a_space(self, capsys):
        base = ("oracle", "--h", "1.75", "--beta", "2", "--N", "8", "--sweeps", "500",
                "--burn-in", "50", "--seed", "3")
        spaced = run(capsys, *base, "--J", "-2e-05")
        joined = run(capsys, *base, "--J=-2e-05")
        assert spaced[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize("flag, value", [("--J", "-inf"), ("--h", "-NaN"), ("--beta", "-Infinity")])
    def test_non_finite_value_after_a_space_reaches_validation(self, capsys, flag, value):
        # argparse's own pattern would read "-inf" as an option and stop at
        # "expected one argument"
        point = {"--J": "0.1", "--h": "0.2", "--beta": "1", flag: value}
        code, out, err = run(capsys, "oracle", *(x for kv in point.items() for x in kv), "--N", "4")
        assert (code, out) == (2, "")
        assert "J, h, beta must be finite" in err

    @pytest.mark.parametrize("argv, code, rows", [
        # every sweep reads 1/3, whose mean of 50 rounds one ulp low: the spread is 0, not
        # 7.9e-18, so the gate allows one flipped spin
        (("--J", "-948723544382.9526", "--h", "71694418.66267477", "--beta", "3", "--N", "3",
          "--sweeps", "50", "--burn-in", "0", "--seed", "3"), 0,
         "3,enumeration,0.33333333333333331,\n3,transfer_matrix,0.33333333333333337,\n"
         "3,metropolis,0.33333333333333326,0\ninf,closed_form,0,\n"),
        # a chain frozen in the wrong domain is still a failure
        (("--J", "355.00764493198", "--h", "2", "--beta", "1.5707963267948968", "--N", "4",
          "--sweeps", "2000", "--burn-in", "10", "--seed", "2", "--no-enumeration"), 3,
         "4,transfer_matrix,0.9999999999756769,\n4,metropolis,-1,0\ninf,closed_form,1,\n"),
    ], ids=["ground-state", "wrong-domain"])
    def test_a_frozen_run_has_no_standard_error(self, capsys, argv, code, rows):
        got = run(capsys, "oracle", *argv)
        assert got[:2] == (code, "N,method,m,std_error\n" + rows)
        assert got[2] == ("" if code == 0 else
                          "internal consistency failure: metropolis -1.0 (standard error 0.0) is "
                          "more than 0.5 from the transfer matrix 0.9999999999756769\n")

    def test_strong_antiferromagnet_is_finite(self, capsys):
        # e^{-4 beta J} = e^{4e6} overflows float64 at this point
        code, out, err = run(
            capsys, "oracle", "--J", "-1000", "--h", "0.001", "--beta", "1000", "--N", "8",
            "--no-metropolis",
        )
        assert code == 0
        assert "8,transfer_matrix,0," in out
        assert "nan" not in out
        assert err == ""

    @pytest.mark.parametrize(
        "J,h,beta,n,extra",
        [
            ("-2", "1", "1000", "7", ("--no-metropolis",)),
            ("0.1", "20", "150", "8", ()),
            ("-1000", "1e-6", "1e5", "9", ("--no-metropolis",)),
            ("-1e4", "2e4", "1", "8", ("--no-metropolis",)),
        ],
    )
    def test_extreme_points_match_mpmath(self, capsys, J, h, beta, n, extra):
        # -2 beta J in the thousands, beta*h = 3000, N |beta*J| swamping
        # beta*h, and e^{-4 beta J} and cosh(beta*h) both past float64
        code, out, err = run(
            capsys, "oracle", "--J", J, "--h", h, "--beta", beta, "--N", n, *extra
        )
        assert code == 0, err
        want = mpmath_finite_magnetization(int(n), float(J), float(h), float(beta))
        rows = [line.split(",") for line in out.splitlines()[1:] if line.startswith(n + ",")]
        assert len(rows) == 3 - len(extra)
        for row in rows:
            assert abs(float(row[2]) - want) <= 1e-10, row

    @pytest.mark.parametrize("point", [
        ("--J", "1e20", "--h", "-4.665494327264568", "--beta", "7.422370891875762", "--N", "16"),
        # without Metropolis, whose frozen chain is the known exit-3 family
        ("--J", "1.7976931348623157e308", "--h", "-1e20", "--beta", "0.1", "--N", "3",
         "--no-metropolis"),
    ])
    def test_enumeration_maxima_that_round_together_give_finite_rows(self, capsys, point):
        # beta*J swamps beta*h, so all up and all down round to one exponent;
        # the field still picks all down as the largest, and no weight overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "oracle", *point)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[0][1:3] == ["enumeration", "-1"]
        assert all(math.isfinite(float(row[2])) for row in rows)

    def test_enumeration_overflow_exits_2(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--J", "1e308", "--h", "0.5", "--beta", "10", "--N", "4",
            "--no-metropolis",
        )
        assert code == 2
        assert out == ""
        assert "overflow" in err

    def test_nan_transfer_matrix_exits_3(self, capsys, monkeypatch):
        # the enumeration gate must not let a NaN transfer matrix through
        monkeypatch.setattr(cli.oracle, "transfer_matrix_finite", lambda spec: math.nan)
        code, out, err = run(
            capsys, "oracle", "--J", "-1000", "--h", "0.001", "--beta", "1000", "--N", "8",
            "--no-metropolis",
        )
        assert "transfer_matrix,nan" in out
        assert code == 3
        assert "internal consistency failure" in err

    def test_nan_transfer_matrix_against_frozen_metropolis_exits_3(self, capsys, monkeypatch):
        # the frozen chain reports a standard error of 0; the Metropolis gate
        # must still compare it with the (NaN) transfer matrix
        monkeypatch.setattr(cli.oracle, "transfer_matrix_finite", lambda spec: math.nan)
        code, out, err = run(
            capsys, "oracle", "--J", "-1000", "--h", "0.001", "--beta", "1000", "--N", "8",
            "--no-enumeration", "--sweeps", "2000", "--burn-in", "200",
        )
        assert "transfer_matrix,nan" in out
        assert "metropolis,0,0" in out
        assert code == 3
        assert "metropolis" in err

    def test_nan_transfer_matrix_alone_exits_3(self, capsys, monkeypatch):
        # with enumeration and Metropolis off, the transfer matrix row is
        # still gated
        monkeypatch.setattr(cli.oracle, "transfer_matrix_finite", lambda spec: math.nan)
        code, out, err = run(
            capsys, "oracle", "--J", "0.1", "--h", "20", "--beta", "1000", "--N", "8",
            "--no-metropolis", "--no-enumeration",
        )
        assert "8,transfer_matrix,nan" in out
        assert code == 3
        assert "transfer matrix nan is not finite" in err

    def test_closed_form_at_huge_beta_is_finite(self, capsys):
        # -4*beta overflows at this beta; with J = 0 the closed form is tanh
        code, out, err = run(
            capsys, "oracle", "--J", "0", "--h", "1", "--beta", "1e308", "--N", "8",
            "--no-metropolis", "--no-enumeration",
        )
        assert code == 0
        assert "inf,closed_form,1,\n" in out
        code, out, err = run(
            capsys, "oracle", "--J", "1", "--h", "1e8", "--beta", "1e300", "--N", "8",
            "--no-metropolis", "--no-enumeration",
        )
        assert code == 0
        assert "inf,closed_form,1,\n" in out

    def test_nan_closed_form_exits_3(self, capsys, monkeypatch):
        # the closed-form row is gated like the transfer matrix row
        monkeypatch.setattr(cli.ising, "magnetization", lambda ip: math.nan)
        code, out, err = run(
            capsys, "oracle", "--J", "-0.25", "--h", "1.75", "--beta", "2", "--N", "8",
            "--no-metropolis",
        )
        assert "inf,closed_form,nan" in out
        assert code == 3
        assert "closed form nan is not finite" in err

    def test_strong_field_is_finite(self, capsys):
        # cosh(beta*h) and sinh(beta*h)^2 overflow float64 at this point
        code, out, err = run(
            capsys, "oracle", "--J", "0.1", "--h", "20", "--beta", "1000", "--N", "8",
            "--no-metropolis",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "8,enumeration,1,", "8,transfer_matrix,1,", "inf,closed_form,1,",
        ]
        assert err == ""

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--J", "0.1", "--h", "0.2", "--beta", "1", "--N", "4",
            "--sweeps", "100", "--burn-in", "10", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_oversized_enumeration_exits_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--J", "0", "--h", "1", "--beta", "1", "--N", "30",
        )
        assert code == 2
        assert "N=30" in err

    @pytest.mark.parametrize("size", [
        ("--N", "1099511627776", "--sweeps", "2", "--burn-in", "1", "--no-enumeration"),
        ("--N", "4", "--sweeps", "1000000000000"),
        ("--N", "4", "--sweeps", "99999999999999999999"),
    ])
    def test_metropolis_above_its_bound_exits_2(self, capsys, size):
        code, out, err = run(capsys, "oracle", "--J", "0.1", "--h", "0.2", "--beta", "1", *size)
        assert (code, out) == (2, "")
        assert err.startswith("error: Metropolis takes N and sweeps up to 2**24")

    def test_metropolis_above_its_site_update_bound_exits_2(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--J", "0.1", "--h", "0.2", "--beta", "1", "--N", "65536",
            "--sweeps", "65537", "--burn-in", "1", "--no-enumeration",
        )
        assert (code, out) == (2, "")
        assert err == ("error: Metropolis takes N * sweeps up to 2**32 site updates, "
                       "got N * sweeps = 4295032832\n")

    def test_overflowing_energy_at_zero_beta_samples_every_flip(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--J", "1e308", "--h", "0", "--beta", "0", "--N", "8",
            "--sweeps", "200", "--burn-in", "20", "--seed", "3",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "N,method,m,std_error", "8,enumeration,0,", "8,transfer_matrix,0,",
            "8,metropolis,0,0", "inf,closed_form,0,",
        ]

    def test_oversized_chain_allowed_without_enumeration(self, tmp_path, capsys):
        out_file = tmp_path / "oracle.csv"
        code, _, _ = run(
            capsys, "oracle", "--J", "0", "--h", "1", "--beta", "1", "--N", "30",
            "--no-enumeration", "--no-metropolis", "--output", str(out_file),
        )
        assert code == 0
        _, rows = read_csv(out_file)
        assert [r[1] for r in rows] == ["transfer_matrix", "closed_form"]

    def test_seeded_run_is_byte_identical(self, tmp_path, capsys):
        args = ("oracle", "--J", "0.2", "--h", "0.5", "--beta", "1.5", "--N", "12",
                "--sweeps", "5000", "--burn-in", "500", "--seed", "13")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--output", str(f1))
        run(capsys, *args, "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestOracleGates:
    """Each cross-check gate of `qgames oracle` at its tolerance: one route is patched to
    sit just past and just inside the gate, at a well-mixed point far from a frozen chain."""

    POINT = ("--J", "0.3", "--h", "0.2", "--beta", "1", "--N", "12")
    ROWS = "N,method,m,std_error\n"

    @staticmethod
    def transfer():
        return oracle.transfer_matrix_finite(oracle.ChainSpec(12, IsingParams(0.3, 0.2, 1.0)))

    @pytest.mark.parametrize("sigmas, code", [(5.5, 3), (-5.5, 3), (4.5, 0), (-4.5, 0)])
    def test_metropolis_gate_is_five_standard_errors(self, capsys, monkeypatch, sigmas, code):
        tm, se = self.transfer(), 1e-3
        est = oracle.SampledEstimate(mean=tm + sigmas * se, std_error=se, samples=900, seed=0)
        monkeypatch.setattr(cli.oracle, "metropolis_magnetization", lambda *a, **k: est)
        got = run(capsys, "oracle", *self.POINT, "--no-enumeration")
        assert got[:2] == (code, self.ROWS + f"12,transfer_matrix,{cli._fmt(tm)},\n"
                           f"12,metropolis,{cli._fmt(est.mean)},{cli._fmt(se)}\n"
                           f"inf,closed_form,{cli._fmt(magnetization(IsingParams(0.3, 0.2, 1.0)))},\n")
        assert got[2] == ("" if code == 0 else
                          f"internal consistency failure: metropolis {est.mean!r} (standard error "
                          f"{se!r}) is more than {5 * se!r} from the transfer matrix {tm!r}\n")

    @pytest.mark.parametrize("offset, code", [(2e-10, 3), (-2e-10, 3), (5e-11, 0), (-5e-11, 0)])
    def test_enumeration_gate_is_1e_10(self, capsys, monkeypatch, offset, code):
        tm = self.transfer()
        monkeypatch.setattr(cli.oracle, "enumerate_magnetization", lambda spec: tm + offset)
        code_got, out, err = run(capsys, "oracle", *self.POINT, "--no-metropolis")
        assert code_got == code
        assert out.startswith(self.ROWS + f"12,enumeration,{cli._fmt(tm + offset)},\n")
        assert err == ("" if code == 0 else
                       f"internal consistency failure: enumeration {tm + offset!r} vs transfer "
                       f"matrix {tm!r} differ beyond 1e-10\n")


class TestRejectedFlags:
    PD = ("--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1")

    @pytest.mark.parametrize("argv, message", [
        (("curve", *PD, "--block", "QvD", "--beta", "abc"), "bad beta list 'abc': "),
        (("curve", *PD, "--block", "QvD", "--beta", ","), "beta list is empty"),
        (("quantize", *PD, "--gamma", "0.1", "--gamma-degrees", "5"),
         "give either --gamma or --gamma-degrees, not both"),
        (("quantize", *PD), "a gamma value is required (--gamma or --gamma-degrees)"),
        (("quantize", *PD, "--config"), "--config needs a file path"),
    ])
    def test_exit_2_with_the_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


class TestOutput:
    @pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, where):
        path = tmp_path / "missing" / "x.txt" if where == "missing_dir" else tmp_path
        code, out, err = run(
            capsys, "transition", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
            "--p", "1", "--output", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output {str(path)!r}")
        assert err.count("\n") == 1


class TestClosedPipe:
    # 2000 gammas write far more than a pipe buffer holds
    ARGV = [sys.executable, "-m", "qgames.cli", "curve", "--game", "pd", "--r", "3",
            "--t", "5", "--s", "0", "--p", "1", "--block", "QvD", "--gamma-steps", "2000"]

    ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def test_reader_leaving_early_exits_1_without_a_traceback(self):
        with subprocess.Popen(self.ARGV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.ENV) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_leaving_after_the_first_line_exits_1(self, unbuffered):
        # as `qgames curve ... | head -1`: the reader leaves while a write is under way
        env = {k: v for k, v in self.ENV.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(self.ARGV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() == b"gamma,beta,J,h,m\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""


class _ClosedPipeStdout:
    """A stdout whose reader has left: writes are kept, flush raises, and fileno
    is a real descriptor for entry to point at devnull."""

    def __init__(self, fd):
        self.fd, self.text = fd, []

    def writelines(self, lines):
        self.text.extend(lines)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestEntry:
    """The console-script hook, run in this process: its exit status is main's
    return code, or 1 when flushing stdout finds the pipe closed."""

    @staticmethod
    def exit_code(monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["qgames", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        return exc.value.code

    def test_success_exits_0_with_the_golden_bytes(self, monkeypatch, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # chicken with r == s warns by design
            code = self.exit_code(monkeypatch, "transition", "--game", "chicken",
                                  "--r", "4", "--s", "4")
        assert code == 0
        assert_golden("transition_chicken.txt", capsys.readouterr().out.encode())

    def test_validation_error_exits_2(self, monkeypatch, capsys):
        code = self.exit_code(monkeypatch, "transition", "--game", "pd", "--r", "3",
                              "--t", "5", "--s", "0", "--p", "4")
        assert code == 2
        assert capsys.readouterr() == ("", "error: r > p violated (r=3.0, p=4.0)\n")

    def test_consistency_error_exits_3(self, monkeypatch, capsys):
        def disagree(*args):
            raise ConsistencyError("stand-in disagreement")

        monkeypatch.setattr(cli.ising, "phase_transition_gamma", disagree)
        code = self.exit_code(monkeypatch, "transition", "--game", "pd", "--r", "3",
                              "--t", "5", "--s", "0", "--p", "1")
        assert code == 3
        assert capsys.readouterr() == (
            "", "internal consistency failure: stand-in disagreement\n")

    def test_closed_pipe_exits_1_and_points_stdout_at_devnull(self, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "wb") as file:
            stdout = _ClosedPipeStdout(file.fileno())
            monkeypatch.setattr(sys, "stdout", stdout)
            code = self.exit_code(monkeypatch, "transition", "--game", "pd", "--r", "3",
                                  "--t", "5", "--s", "0", "--p", "1")
            assert code == 1
            assert "".join(stdout.text).encode() == (GOLDEN / "transition_pd.txt").read_bytes()
            fd_stat, devnull = os.fstat(file.fileno()), os.stat(os.devnull)
            assert (fd_stat.st_dev, fd_stat.st_ino) == (devnull.st_dev, devnull.st_ino)

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["qgames", "transition", "--game", "pd", "--r", "3",
                                          "--t", "5", "--s", "0", "--p", "1"])
        assert main() == 0
        assert_golden("transition_pd.txt", capsys.readouterr().out.encode())


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "game=pd\n"
            "r=3\n"
            "t=5\n"
            "s=0\n"
            "p=1\n"
            "block=QvD\n"
            "gamma_steps=10\n"
        )
        f1 = tmp_path / "a.csv"
        code, _, _ = run(
            capsys, "curve", "--config", str(cfg), "--gamma-steps", "5",
            "--output", str(f1),
        )
        assert code == 0
        _, rows = read_csv(f1)
        assert len(rows) == 5 * 4  # flag overrides the config's 10 steps

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, err = run(capsys, "curve", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("line", ["=3", " = 3"])
    def test_an_empty_key_exits_2_and_keeps_the_explicit_flags(self, tmp_path, capsys, line):
        # an empty key would become `--`, and the explicit flags after it would be positionals
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "oracle", "--J", "0.1", "--h", "0.2", "--beta", "1",
                             "--N", "4", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:1: expected key=value, got {line.strip()!r}\n"

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "curve", "--config", "/nonexistent.cfg")
        assert code == 2
        assert "cannot read config" in err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"game=pd\n\xff\n")
        code, out, err = run(capsys, "transition", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {str(cfg)!r}: ")

    def test_byte_order_mark_reads_as_the_plain_file(self, tmp_path, capsys):
        point = ("oracle", "--J", "0.3", "--h", "0.2", "--beta", "1", "--N", "8")
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"no_metropolis=true\n")
        bom.write_bytes(b"\xef\xbb\xbfno_metropolis=true\n")
        want = run(capsys, *point, "--config", str(plain))
        assert want[0] == 0
        assert run(capsys, *point, "--config", str(bom))[:2] == want[:2]

    def test_equals_spelling_matches_the_spaced_one(self, tmp_path, capsys):
        cfg = tmp_path / "pd.cfg"
        cfg.write_text("game=pd\nr=3\nt=5\ns=0\np=1\n")
        spaced = run(capsys, "transition", "--config", str(cfg))
        assert spaced[0] == 0
        assert run(capsys, "transition", f"--config={cfg}") == spaced

    def test_equals_spelling_gives_the_same_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value pair\n")
        for path in (bad, tmp_path / "missing.cfg"):
            spaced = run(capsys, "transition", "--config", str(path))
            assert spaced[0] == 2
            assert run(capsys, "transition", f"--config={path}") == spaced
        spaced = run(capsys, "--config", str(bad), "transition")
        assert spaced[2] == "error: --config must follow the subcommand\n"
        assert run(capsys, f"--config={bad}", "transition") == spaced

    def test_a_token_containing_config_is_not_the_flag(self, tmp_path, capsys):
        # past _merge_config's one-scan shortcut: "--config" is in the joined argv, no token is it
        point = ("transition", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1")
        out = tmp_path / "a--config"
        assert run(capsys, *point, "--output", str(out)) == (0, "", "")
        assert out.read_text().startswith("game=pd  block=QvD\n")
        with pytest.raises(SystemExit) as exc:
            main([*point, "--config-x", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --config-x 1" in captured.err


class TestConfigSwitches:
    POINT = ("oracle", "--J", "0.1", "--h", "0.2", "--beta", "1", "--N", "8",
             "--sweeps", "200", "--burn-in", "20")

    def methods(self, capsys, tmp_path, text):
        cfg = tmp_path / "switches.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, *self.POINT, "--config", str(cfg))
        assert (code, err) == (0, "")
        return [line.split(",")[1] for line in out.splitlines()[1:]]

    @pytest.mark.parametrize("key, method", [
        ("no_metropolis", "metropolis"), ("no_enumeration", "enumeration"),
    ])
    def test_true_sets_the_switch_and_false_leaves_it_off(self, capsys, tmp_path, key, method):
        assert method not in self.methods(capsys, tmp_path, f"{key}=true\n")
        assert method in self.methods(capsys, tmp_path, f"{key} = false\n")

    def test_explicit_flag_wins_over_false(self, capsys, tmp_path):
        cfg = tmp_path / "switches.cfg"
        cfg.write_text("no_metropolis=false\n")
        code, out, _ = run(capsys, *self.POINT, "--config", str(cfg), "--no-metropolis")
        assert code == 0
        assert "metropolis" not in out

    @pytest.mark.parametrize("value", ["yes", "1", ""])
    def test_other_values_of_a_switch_exit_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "switches.cfg"
        cfg.write_text(f"no_metropolis={value}\n")
        code, out, err = run(capsys, *self.POINT, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}:1: no_metropolis is a switch, give true or false, "
                       f"got {value!r}\n")

    def test_a_value_key_keeps_its_value(self, capsys, tmp_path, monkeypatch):
        # output=true names a file, it is no switch
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "out.cfg"
        cfg.write_text("output=true\nno_metropolis=true\n")
        code, out, _ = run(capsys, *self.POINT, "--config", str(cfg))
        assert (code, out) == (0, "")
        assert (tmp_path / "true").read_text().startswith("N,method,m,std_error\n")


    def test_a_switch_of_another_subcommand_is_an_unknown_flag(self, capsys, tmp_path):
        # curve has no switches, so no_metropolis=true reads as --no-metropolis true
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("game=pd\nr=3\nt=5\ns=0\np=1\nblock=QvD\nno_metropolis=true\n")
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --no-metropolis true" in captured.err


class TestParserReuse:
    """Every `main` call of a process parses with the one cached parser;
    nothing a call parses may reach the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_metropolis_row_returns_after_no_metropolis(self, capsys):
        point = ("oracle", "--J", "0.2", "--h", "0.5", "--beta", "1", "--N", "8",
                 "--sweeps", "2000", "--burn-in", "200")
        code, out, _ = run(capsys, *point, "--no-metropolis")
        assert code == 0
        assert ",metropolis," not in out
        code, out, _ = run(capsys, *point)
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
            "enumeration", "transfer_matrix", "metropolis", "closed_form",
        ]

    def test_default_betas_return_after_a_beta_flag(self, capsys):
        args = ("curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
                "--block", "QvD", "--gamma-steps", "3")
        code, out, _ = run(capsys, *args, "--beta", "1")
        assert code == 0
        assert {row.split(",")[1] for row in out.splitlines()[1:]} == {"1"}
        code, out, _ = run(capsys, *args)
        assert code == 0
        rows = out.splitlines()[1:]
        assert tuple(float(row.split(",")[1]) for row in rows[:4]) == cli.DEFAULT_BETAS
        assert len(rows) == 3 * len(cli.DEFAULT_BETAS)

    def test_config_values_do_not_reach_the_next_call(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=pd\nr=3\nt=5\ns=0\np=1\nblock=QvD\ngamma_steps=10\nbeta=2\n")
        code, out, _ = run(capsys, "curve", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 1 + 10
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--block", "QvD"])
        assert exc.value.code == 2
        assert "--game" in capsys.readouterr().err
        code, out, _ = run(capsys, "curve", "--game", "chicken", "--r", "3", "--s", "4",
                           "--block", "QvStraight")
        assert code == 0
        assert len(out.splitlines()) == 1 + cli.DEFAULT_GAMMA_STEPS * len(cli.DEFAULT_BETAS)

    @pytest.mark.parametrize("bad", [
        ("oracle", "--J", "x", "--h", "1", "--beta", "1", "--N", "8"),
        ("quantize", "--game", "pd", "--gamma", "1", "--bogus"),
        ("curve", "--game", "pd", "--block", "QvX"),
        ("nonsense",),
    ])
    def test_rejected_call_leaves_nothing_behind(self, bad, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(list(bad))
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
            assert_golden("quantize_pd.txt", stdout_bytes(capsys, CASES["quantize_pd.txt"]))
        assert errors[0] == errors[1]

    def test_help_is_the_same_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["oracle", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "--no-metropolis" in texts[0]

    def test_documented_invocations_twice_in_one_process(self, capsys):
        for _ in range(2):
            for name, argv in sorted(CASES.items()):
                assert_golden(name, stdout_bytes(capsys, argv))


PD_FLAGS = ("--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1")
ORACLE_POINT = ("oracle", "--J", "0.1", "--h", "0.2", "--beta", "1", "--N", "8")


def outcome(parse, argv):
    """What parsing argv gives: the namespace less `subcommand` (which only
    the top-level parser sets), each value by its repr so that NaN and -0.0
    compare too, the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
            args, code = {k: repr(v) for k, v in vars(args).items() if k != "subcommand"}, None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, code, out.getvalue(), err.getvalue()


def refuse(*args, **kwargs):
    raise AssertionError("argparse parsed an argv that the option table reads")


class TestSubcommandParser:
    """`main` reads a known subcommand's well-formed argv from that
    subcommand's option table and hands everything else to one top-level
    argparse pass; each parse must give what the top-level parser gives:
    the namespace (less `subcommand`), the exit code, stdout and stderr."""

    @pytest.mark.parametrize("argv, code", [
        ((), 2),
        (("-h",), 0),
        (("quantize", "-h"), 0),
        (("curve", "--help"), 0),
        (("quantize", "--he"), 0),                                    # abbreviates --help
        (("nonsense",), 2),
        (("nonsense", "--game", "pd"), 2),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--bogus"), 2),
        (("quantize", *PD_FLAGS, "--gamma", "1", "extra", "--bogus", "x"), 2),
        (("oracle", "--J", "x", "--h", "1", "--beta", "1", "--N", "8"), 2),
        (("curve", *PD_FLAGS, "--block", "QvX"), 2),
        (("curve", *PD_FLAGS), 2),                                    # --block missing
        (("curve", "--game"), 2),
        (("quantize", *PD_FLAGS, "--gam", "1"), 2),                   # ambiguous
        (("quantize", *PD_FLAGS, "--gamma-d", "45"), None),
        (("oracle", "--J", "0.1", "--h", "0.2", "--be", "1", "--N", "8", "--no-m"), None),
        (("quantize", *PD_FLAGS, "--", "--gamma", "1"), 2),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--"), 2),
        (("quantize", "--", *PD_FLAGS, "--gamma", "1"), 2),
        ((*ORACLE_POINT, "--no-metropolis", "--no-metropolis"), None),
        (("oracle", "--N=8", "--J", "0.1", "--h", "0.2", "--beta", "1", "--N=9"), None),
        (("quantize", "--game", "pd", "--r", "3", "--t", "5", "--s", "-2e-05", "--p", "1",
          "--gamma", "-inf"), None),
        (("transition", *PD_FLAGS), None),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--output="), None),
        (("quantize", "--game", "pd", "--r=", "--t", "5", "--s", "0", "--p", "1",
          "--gamma", "1"), 2),
        ((*ORACLE_POINT, "--no-metropolis=true"), 2),
        (("quantize", *PD_FLAGS, "--gamma", "- 1"), 2),              # a value, not a float
        (("quantize", "--game", "pd", "--r", "3", "--t", "5", "--s", "\u0661", "--p", "1",
          "--gamma", "1"), None),                                     # Arabic-Indic one
        (("quantize", "--game", "pd", "--r", "3", "--t", "5", "--s", "-\u0661", "--p", "1",
          "--gamma", "1"), None),
        (("curve", *PD_FLAGS, "--block", "QvD", "--gamma-steps", "1_0"), None),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--gamma=2"), None),
        (("quantize", *PD_FLAGS, "--gamma=1", "--gamma", "2"), None),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--help"), 0),
        (("quantize", *PD_FLAGS, "--gamma", "1", "--output=--"), 2),
        (("curve", *PD_FLAGS, "--block", "QvD", "--gamma-steps", "2", "--beta", "-0.0,1"), None),
        (("quantize", "--game", "pd", "--r", "3", "--t", "5", "--s", "-1_0", "--p", "1",
          "--gamma", "1"), None),
        (("quantize", "--game", "pd", "--r", "-1,2", "--t", "5", "--s", "0", "--p", "1",
          "--gamma", "1"), 2),                                        # invalid float value
        (("curve", *PD_FLAGS, "--block", "QvD", "--gamma-steps", "-1_0"), None),  # -10
    ])
    def test_parses_as_the_top_level_parser(self, argv, code):
        want = outcome(cli.build_parser().parse_args, argv)
        assert want[1] == code
        assert outcome(cli._parse, argv) == want

    @pytest.mark.parametrize("argv, flag, value", [
        (("curve", *PD_FLAGS, "--block", "QvD", "--gamma-steps", "2"), "--beta", "-0.0,1"),
        (("quantize", "--game", "pd", "--r", "3", "--t", "5", "--p", "1", "--gamma", "1"),
         "--s", "-1_0"),
    ])
    def test_a_dash_led_value_float_reads_is_a_value_after_a_space(self, capsys, argv, flag,
                                                                    value):
        spaced = run(capsys, *argv, flag, value)
        assert spaced[0] == 0
        assert spaced == run(capsys, *argv, f"{flag}={value}")

    def test_config_switch_under_curve_parses_as_the_top_level_parser(self, tmp_path):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("no_metropolis=true\n")
        argv = cli._merge_config(["curve", *PD_FLAGS, "--block", "QvD", "--config", str(cfg)])
        want = outcome(cli.build_parser().parse_args, argv)
        assert want[1] == 2
        assert "unrecognized arguments: --no-metropolis true" in want[3]
        assert outcome(cli._parse, argv) == want

    def test_a_known_subcommand_skips_the_top_level_parse(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert_golden("quantize_pd.txt", stdout_bytes(capsys, CASES["quantize_pd.txt"]))

    @pytest.mark.parametrize("argv", [
        ("quantize", "--game=--", "--r", "3", "--t", "5", "--s", "0", "--p", "1", "--gamma", "1"),
        ("quantize", *PD_FLAGS, "--r=--", "--gamma", "1"),
        ("oracle", "--J=--", "--h", "1", "--beta", "1", "--N", "8"),
        ("curve", *PD_FLAGS, "--block", "QvD", "--beta=--"),
        (*ORACLE_POINT, "--output=--"),
        (*ORACLE_POINT[:-2], "--N=--"),
        ("curve", *PD_FLAGS, "--block=--"),
    ])
    def test_a_dash_dash_value_is_a_missing_value(self, capsys, argv):
        flag = next(tok for tok in argv if tok.endswith("=--"))[:-3]
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"qgames {argv[0]}: error: argument {flag}: expected one argument"
        ]
        spaced = [tok for tok in argv if not tok.endswith("=--")] + [flag, "--"]
        assert outcome(cli._parse, spaced)[1:] == (2, "", captured.err)


# Templates of valid argv, as (flag, value) pieces (a switch has no value),
# and the values the fuzz below mixes in: each form argparse classifies or
# converts in its own way. The derandomized examples pick a value by its index
# and leave some indices unused, so the fuzz also runs one explicit example per
# value (`mixed_argv`), and the test that follows it gives each value after
# every kind of value flag.
ARGV_TEMPLATES = {
    "quantize": (("--game", "pd"), ("--r", "3"), ("--t", "5"), ("--s", "0"), ("--p", "1"),
                 ("--gamma", "1")),
    "curve": (("--game", "chicken"), ("--r", "3"), ("--s", "4"), ("--block", "QvStraight"),
              ("--gamma-steps", "3"), ("--beta", "1,2")),
    "transition": (("--game", "pd"), ("--r", "3"), ("--t", "5"), ("--s", "0"), ("--p", "1")),
    "oracle": (("--J", "0.1"), ("--h", "-0.2"), ("--beta", "1"), ("--N", "8"),
               ("--no-metropolis", None)),
}
FUZZ_VALUES = ("3", "0", "8", "-8", "-2e-05", ".5", "1e400", "-inf", "-NaN", "-infinity", "0x10",
               "1_0", " 8 ", "\u0661", "-\u0661", "- 1", "-1=2", "-1\n", "-", "--", "-x", "",
               "pd", "chicken", "QvD", "QvX", "true", "x=1", "--gamma", "-h",
               "-0.0,1", "-1,2", "-1,", "-1_0")


@st.composite
def fuzzed_argv(draw):
    """A subcommand's template argv with pieces dropped, added and reordered,
    each drawn as `--flag value`, `--flag=value`, a bare flag or a bare value;
    flags come from the subcommand's own table, some cut short."""
    name = draw(st.sampled_from(sorted(ARGV_TEMPLATES)))
    known = sorted(cli.build_parser().subcommands[name]._option_string_actions)
    flag = st.sampled_from(known) | st.sampled_from(known).map(lambda f: f[:-1])
    value = st.sampled_from(FUZZ_VALUES) | st.text(alphabet="-=.e1 x", max_size=3)
    pieces = list(ARGV_TEMPLATES[name])
    if draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    pieces += draw(st.lists(st.tuples(flag | st.none(), value | st.none()), max_size=3))
    argv = [name]
    for f, v in draw(st.permutations(pieces)):
        if f is not None and v is not None and draw(st.booleans()):
            argv.append(f"{f}={v}")
        else:
            argv += [tok for tok in (f, v) if tok is not None]
    return argv


def mixed_argv(k, value):
    """The k-th template in turn, with its k-th piece dropped and its last
    kept piece repeated, then `value` after its longest flag cut short: after
    a space, or after `=` for every other turn through the templates."""
    name = sorted(ARGV_TEMPLATES)[k % len(ARGV_TEMPLATES)]
    pieces = list(ARGV_TEMPLATES[name])
    cut = max((flag for flag, _ in pieces), key=len)[:-1]
    del pieces[k % len(pieces)]
    kept = [tok for piece in pieces + pieces[-1:] for tok in piece if tok is not None]
    return [name, *kept, *([f"{cut}={value}"] if k // len(ARGV_TEMPLATES) % 2 else [cut, value])]


def with_each_fuzz_value(test):
    """One explicit example per FUZZ_VALUES entry, whatever the draws reach."""
    for k, value in enumerate(FUZZ_VALUES):
        test = example(mixed_argv(k, value))(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzzed_argv())
@with_each_fuzz_value
def test_fuzzed_argv_parses_as_the_top_level_parser(argv):
    assert outcome(cli._parse, argv) == outcome(cli.build_parser().parse_args, argv)


# one flag of each kind a value can go to: float, int, choice, and a str
# (`--beta`, `--output`) read later or not at all
VALUE_FLAGS = (("quantize", "--s"), ("curve", "--gamma-steps"), ("curve", "--block"),
               ("curve", "--beta"), ("oracle", "--N"), ("transition", "--output"))


@pytest.mark.parametrize("value", FUZZ_VALUES)
def test_each_fuzz_value_after_a_value_flag_parses_as_the_top_level_parser(value):
    argvs = []
    for name, flag in VALUE_FLAGS:
        rest = [tok for piece in ARGV_TEMPLATES[name] if piece[0] != flag
                for tok in piece if tok is not None]
        argvs += [[name, flag, value, *rest], [name, f"{flag}={value}", *rest]]
    for argv in argvs:
        assert outcome(cli._parse, argv) == outcome(cli.build_parser().parse_args, argv), argv


def readme_invocations():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = re.findall(r"qgames ((?:quantize|curve|transition|oracle) [^`\n]*)",
                          readme.replace("\\\n", " "))
    return [shlex.split(command) for command in commands if "..." not in command]


def test_well_formed_argv_is_read_without_argparse(perfbench, capsys, monkeypatch, tmp_path):
    """With argparse's parse refused, every README invocation, the benchmark's
    `--name=value` requests and two --config expansions print what they
    print through argparse's parse, and the goldens."""
    _, workloads = perfbench
    argvs = readme_invocations()
    assert len(argvs) == 7
    for name, wl in workloads.WORKLOADS.items():
        for i, row in enumerate(wl.inputs(np.random.default_rng([201, 0]), 2)):
            req = wl.prepare(row, i)
            argvs += req["argvs"] if "argvs" in req else [req["argv"]]
    (tmp_path / "curve.cfg").write_text("game=pd\nr=3\nt=5\ns=-2e-05\np=-1\nblock=QvD\n")
    (tmp_path / "oracle.cfg").write_text("J=0.2\nh=-0.5\nbeta=1\nN=8\nno_metropolis=true\n")
    argvs += [["curve", "--config", str(tmp_path / "curve.cfg"), "--gamma-steps", "5"],
              ["oracle", f"--config={tmp_path / 'oracle.cfg'}", "--seed", "3"]]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)

    def invoke(argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(argv))
        files = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        for p in run_dir.iterdir():
            p.unlink()
        return code, capsys.readouterr(), [str(w.message) for w in caught], files

    with monkeypatch.context() as m:
        m.setattr(cli, "_read", lambda parser, args: None)
        want = [invoke(argv) for argv in argvs]
    monkeypatch.setattr(cli._Parser, "parse_known_args", refuse)
    assert [invoke(argv) for argv in argvs] == want
    assert_golden("curve_pd_qvd.sha256", want[1][3]["pd_qvd.csv"])
    for name, argv in CASES.items():
        assert_golden(name, stdout_bytes(capsys, argv))


# Numeric flag values of the contract fuzz below: signed zeros, subnormals, the float
# extremes, infinities, NaN and a literal beyond the float range, besides log-uniform
# magnitudes of either sign and plain values.
EDGE_NUMBERS = ("0", "-0.0", "5e-324", "-5e-324", "1e-310", "1e308", "-1e308",
                "1.7976931348623157e308", "-1.7976931348623157e308", "inf", "-inf", "nan",
                "1e400")
FLOAT_MAX = sys.float_info.max
SWAP_WARNING = re.compile(r"s == r == .*: strict ordering s > r relaxed")


def number(lo, hi, valid=None):
    """An edge value, a log-uniform magnitude of either sign, or (half the
    draws) a plain value within [lo, hi]; with a `valid` range, only values
    within it."""
    log_uniform = st.builds(lambda sign, e: repr(sign * 10.0**e),
                            st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0))
    inside = st.floats(lo, hi).map(repr)
    values = st.one_of(st.sampled_from(EDGE_NUMBERS), log_uniform, inside, inside)
    return values if valid is None else values.filter(lambda x: valid[0] <= float(x) <= valid[1])


@st.composite
def contract_argv(draw):
    """A well-formed argv of any subcommand with every numeric flag drawn from
    `number`. Half the argvs keep each value within its flag's documented
    range, with distinct payoffs in their game's order; the chain and
    Metropolis sizes stay small."""
    name = draw(st.sampled_from(("quantize", "curve", "transition", "oracle")))
    tame = draw(st.booleans())

    def num(lo, hi, valid):
        return number(lo, hi, valid if tame else None)

    def pick(valid, wild):
        return st.sampled_from(valid if tame else valid + wild)

    if name == "oracle":
        flags = {"--J": num(-3, 3, (-FLOAT_MAX, FLOAT_MAX)),
                 "--h": num(-3, 3, (-FLOAT_MAX, FLOAT_MAX)),
                 "--beta": num(0, 10, (0, FLOAT_MAX)),
                 "--N": pick((2, 3, 8, 12), (1, -1)), "--sweeps": pick((60, 20), (1, 0, -1)),
                 "--burn-in": pick((0, 10), (60, -1)),
                 "--seed": st.integers(0, 2**64) if tame else st.integers(-1, 2**64)}
        argv = [name, *(tok for flag, values in flags.items() for tok in (flag, str(draw(values))))]
        return argv + [f for f in ("--no-enumeration", "--no-metropolis") if draw(st.booleans())]
    game = draw(st.sampled_from(sorted(GAMES)))
    ascending = ("--s", "--p", "--r", "--t") if game == "pd" else ("--r", "--s")
    payoff = num(-5, 5, (-FLOAT_MAX, FLOAT_MAX) if game == "pd" else (5e-324, FLOAT_MAX))
    values = draw(st.lists(payoff, min_size=len(ascending), max_size=len(ascending),
                           unique_by=float))
    if tame or draw(st.booleans()):
        values.sort(key=float)
    argv = [name, "--game", game, *(tok for pair in zip(ascending, values) for tok in pair)]
    blocks = [b.value for b, row in _BLOCKS.items() if row.game == game]
    if name == "quantize":
        flag, hi = draw(st.sampled_from((("--gamma", math.pi / 2), ("--gamma-degrees", 90.0))))
        return argv + [flag, draw(num(0, hi, (0, hi)))]
    if name == "transition":
        return argv + draw(st.sampled_from([[], *(["--block", b] for b in blocks)]))
    argv += ["--block", draw(st.sampled_from(blocks)),
             "--beta", ",".join(draw(st.lists(num(0, 10, (0, FLOAT_MAX)), min_size=1,
                                              max_size=3)))]
    start, stop = (draw(num(0, 0.8, (0, 0.8))), draw(num(0.8, 1.5, (0.8, 1.5))))
    for flag, value in (("--gamma-start", start), ("--gamma-stop", stop),
                        ("--gamma-steps", str(draw(pick((1, 2, 5), (0, -1)))))):
        if draw(st.booleans()):
            argv += [flag, value]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(contract_argv())
def test_main_exits_0_2_or_3_with_one_error_line_and_finite_csv_fields(argv):
    """Whatever numbers the flags carry, `main` returns 0, 2 or 3 (argparse's
    exit 2 included) and raises nothing else; stderr is one `error:` or
    `internal consistency failure:` line or argparse's usage and error, the
    one warning is the documented s == r one, and every number a `curve` or
    `oracle` CSV prints is finite."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif lines and lines[0].startswith("usage: "):
        assert code == 2 and re.fullmatch(rf"qgames {argv[0]}: error: .+", lines[-1])
    else:
        prefix = "error: " if code == 2 else "internal consistency failure: "
        assert len(lines) == 1 and lines[0].startswith(prefix)
    assert all(w.category is UserWarning and SWAP_WARNING.fullmatch(str(w.message))
               for w in caught), [str(w.message) for w in caught]
    if argv[0] in ("curve", "oracle") and out.getvalue():
        header, *rows = (line.split(",") for line in out.getvalue().splitlines())
        numeric = range(len(header)) if argv[0] == "curve" else (2, 3)
        for row in rows:
            fields = [row[k] for k in numeric if row[k]]  # an oracle row's empty std_error
            assert all(math.isfinite(float(x)) for x in fields), row
