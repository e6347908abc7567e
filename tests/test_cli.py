import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    classical_magnetization,
    mpmath_finite_magnetization,
    numpy_magnetization,
    numpy_to_ising,
    random_chicken,
    random_pd,
)
from qgames import Block, cli, extract_block
from qgames.catalog import _BLOCK_STRATEGIES, GAMES
from qgames.cli import main
from test_golden import CASES, assert_golden, stdout_bytes

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
        payoff_type, _, _, block = GAMES[kind]
        assert _BLOCK_STRATEGIES[block][0] == kind
        names = {f.name for f in dataclasses.fields(payoff_type)}
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

    def test_strong_antiferromagnet_is_finite(self, capsys):
        # e^{-4 beta J} overflows long double at this point
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
        # beta*h, and e^{-4 beta J} and cosh(beta*h) both past long double
        code, out, err = run(
            capsys, "oracle", "--J", J, "--h", h, "--beta", beta, "--N", n, *extra
        )
        assert code == 0, err
        want = mpmath_finite_magnetization(int(n), float(J), float(h), float(beta))
        rows = [line.split(",") for line in out.splitlines()[1:] if line.startswith(n + ",")]
        assert len(rows) == 3 - len(extra)
        for row in rows:
            assert abs(float(row[2]) - want) <= 1e-10, row

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
        # cosh(beta*h) and sinh(beta*h)^2 overflow long double at this point
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
    def test_reader_leaving_early_exits_1_without_a_traceback(self):
        # 2000 gammas write far more than a pipe buffer holds
        root = Path(__file__).resolve().parent.parent
        argv = [sys.executable, "-m", "qgames.cli", "curve", "--game", "pd", "--r", "3",
                "--t", "5", "--s", "0", "--p", "1", "--block", "QvD", "--gamma-steps", "2000"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""


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

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "curve", "--config", "/nonexistent.cfg")
        assert code == 2
        assert "cannot read config" in err

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
