"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import (
    classical_chicken_game,
    classical_magnetization,
    qvc_closed_form,
    qvd_closed_form,
    qvstraight_closed_form,
    qvswerve_closed_form,
    random_chicken,
    random_pd,
)
from qgames import (
    Block,
    ChickenPayoffs,
    IsingParams,
    PDPayoffs,
    couplings,
    extract_block,
    magnetization,
    mixed_nash_symmetric_2x2,
    phase_transition_gamma,
    pure_nash,
    quantized_game,
    to_ising,
)
from qgames.cli import main as cli_main
from qgames.oracle import (
    ChainSpec,
    enumerate_magnetization,
    metropolis_magnetization,
    transfer_matrix_finite,
)

PD_3501 = PDPayoffs(3, 5, 0, 1)


def report(criterion, passed, detail=""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def best_of(n, fn):
    best = math.inf
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def read_curve_csv(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    by_beta = {}
    for row in rows:
        by_beta.setdefault(row[1], []).append((float(row[0]), float(row[4])))
    return by_beta


def bracket_of_sign_change(samples):
    crossings = [
        (g1, g2)
        for (g1, m1), (g2, m2) in zip(samples, samples[1:])
        if (m1 < 0.0) != (m2 < 0.0)
    ]
    assert len(crossings) == 1, f"expected one sign change, found {len(crossings)}"
    return crossings[0]


def test_criterion_1_extended_matrix_reference():
    def build():
        return quantized_game("pd", PD_3501, math.pi / 2)

    game = build()
    expected = np.array([[3, 0, 1], [5, 1, 0], [1, 5, 3]], dtype=float)
    err = max(np.max(np.abs(game.row - expected)), np.max(np.abs(game.row.T - expected.T)))
    equilibria = [game.label_cell(c) for c in pure_nash(game)]
    elapsed = best_of(3, lambda: pure_nash(build()))
    ok = err <= 1e-12 and equilibria == [("Q", "Q")] and elapsed < 1e-3
    report(1, ok, f"matrix err {err:.2e}, NE {equilibria}, runtime {elapsed*1e3:.3f} ms")


def test_criterion_2_pd_transition_checkpoint(tmp_path):
    gamma_star, _ = phase_transition_gamma("pd", PD_3501, Block.QVD)
    target = 0.5 * math.acos(2 / 5)
    analytic_ok = abs(gamma_star - target) <= 1e-9 and abs(gamma_star - 0.579640) < 1e-6

    out = tmp_path / "pd_curve.csv"
    argv = ["curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
            "--block", "QvD", "--gamma-steps", "200", "--output", str(out)]
    cli_main(argv)  # warm caches before timing
    elapsed = best_of(3, lambda: cli_main(argv))
    by_beta = read_curve_csv(out)
    step = math.pi / 2 / 199
    bracket_ok = True
    for beta in ("0.5", "1", "2", "5"):
        samples = by_beta[beta]
        lo, hi = bracket_of_sign_change(samples)
        bracket_ok &= lo - step <= gamma_star <= hi + step
    ok = analytic_ok and bracket_ok and elapsed < 0.1
    report(2, ok, f"gamma*={gamma_star:.9f}, brackets ok={bracket_ok}, "
                  f"cmd_curve runtime {elapsed*1e3:.1f} ms")


def test_criterion_3_chicken_transition_checkpoint(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ch = ChickenPayoffs(4, 4)
        gamma_star, _ = phase_transition_gamma("chicken", ch, Block.QVSTRAIGHT)
    analytic_ok = abs(gamma_star - math.pi / 6) <= 1e-9

    out = tmp_path / "chicken_curve.csv"
    argv = ["curve", "--game", "chicken", "--r", "4", "--s", "4",
            "--block", "QvStraight", "--gamma-steps", "200", "--output", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cli_main(argv)
        elapsed = best_of(3, lambda: cli_main(argv))
    by_beta = read_curve_csv(out)
    step = math.pi / 2 / 199
    bracket_ok = True
    for samples in by_beta.values():
        lo, hi = bracket_of_sign_change(samples)
        bracket_ok &= lo - step <= gamma_star <= hi + step
    ok = analytic_ok and bracket_ok and elapsed < 0.1
    report(3, ok, f"gamma*={gamma_star:.9f} (pi/6={math.pi/6:.9f}), "
                  f"brackets ok={bracket_ok}, cmd_curve runtime {elapsed*1e3:.1f} ms")


def test_criterion_4_zero_field_blocks_are_exactly_zero():
    rng = np.random.default_rng(40)
    checked = 0
    worst = 0.0
    for _ in range(100):
        p = random_pd(rng)
        c = random_chicken(rng)
        for _ in range(20):
            gamma = rng.uniform(0.0, math.pi / 2)
            beta = rng.uniform(0.0, 5.0)
            m1 = magnetization(to_ising(extract_block("pd", p, Block.QVC, gamma), beta))
            m2 = magnetization(to_ising(extract_block("chicken", c, Block.QVSWERVE, gamma), beta))
            worst = max(worst, abs(m1), abs(m2))
            checked += 2
    ok = worst == 0.0
    report(4, ok, f"{checked} samples, max |m| = {worst!r}")


def test_criterion_5_maximal_entanglement_positivity():
    rng = np.random.default_rng(50)
    pd_ok = True
    for _ in range(1000):
        p = random_pd(rng)
        beta = rng.uniform(0.0, 5.0) or 1e-3
        m = magnetization(to_ising(extract_block("pd", p, Block.QVD, math.pi / 2), beta))
        pd_ok &= m > 0.0
    grid = np.linspace(math.pi / 4 + 1e-9, math.pi / 2, 50)
    chicken_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            c = random_chicken(rng, allow_equal=True)
            beta = rng.uniform(0.0, 5.0) or 1e-3
            # one circuit pass per draw; the stacked (J, h) equal the scalar ones bit for bit
            for J, h in couplings(extract_block("chicken", c, Block.QVSTRAIGHT, grid)):
                m = magnetization(IsingParams(J, h, beta))
                chicken_ok &= m > 0.0
                if not chicken_ok:
                    break
            if not chicken_ok:
                break
    ok = pd_ok and chicken_ok
    report(5, ok, f"pd positive: {pd_ok}, chicken positive above pi/4: {chicken_ok}")


def test_criterion_6_classical_reduction_at_zero_entanglement():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(200):
        p = random_pd(rng)
        beta = rng.uniform(0.0, 5.0)
        got = magnetization(to_ising(extract_block("pd", p, Block.QVD, 0.0), beta))
        expected = classical_magnetization(
            beta, (p.r + p.p - p.t - p.s) / 4, (p.r + p.s - p.t - p.p) / 4
        )
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    report(6, ok, f"max |quantum(0) - classical| = {worst:.2e}")


def test_criterion_7_oracle_triangle():
    rng = np.random.default_rng(70)

    # enumeration vs transfer matrix, N cycling 2..20 over 50 random draws
    worst_et = 0.0
    for i in range(50):
        n = 2 + i % 19
        J, h = rng.uniform(-2, 2, size=2)
        beta = rng.uniform(0.0, 5.0)
        s = ChainSpec(N=n, params=IsingParams(J=J, h=h, beta=beta))
        worst_et = max(worst_et, abs(enumerate_magnetization(s) - transfer_matrix_finite(s)))
    enum_ok = worst_et <= 1e-10

    # N=512 vs the closed form over the stated parameter box
    gaps, draws = [], []
    for _ in range(50):
        J, h = rng.uniform(-2, 2, size=2)
        beta = rng.uniform(0.0, 5.0)
        s = ChainSpec(N=512, params=IsingParams(J=J, h=h, beta=beta))
        m_inf = magnetization(IsingParams(J=J, h=h, beta=beta))
        gaps.append(abs(transfer_matrix_finite(s) - m_inf))
        draws.append((J, beta))
    gaps = np.array(gaps)
    limit_ok = bool(np.max(gaps) <= 1e-8)
    # where the misses lie: the sign of J and the range of beta*|J|
    missed = [(J, beta * abs(J)) for (J, beta), gap in zip(draws, gaps) if gap > 1e-8]
    where = ""
    if missed:
        neg = [J < 0 for J, _ in missed]
        sign = "all J < 0" if all(neg) else "all J >= 0" if not any(neg) else "J of both signs"
        bj = [b for _, b in missed]
        where = f", {sign}, beta*|J| {min(bj):.2f}-{max(bj):.2f}: finite-size gaps"

    # seeded Metropolis at the standard load
    s = ChainSpec(N=128, params=IsingParams(J=-0.25, h=1.75, beta=1.0))
    est = metropolis_magnetization(s, sweeps=100_000, burn_in=10_000, seed=7)
    ref = transfer_matrix_finite(s)
    metro_ok = abs(est.mean - ref) <= 3 * est.std_error

    # enumeration wall-clock at the largest checked size
    s20 = ChainSpec(N=20, params=IsingParams(J=-0.25, h=1.75, beta=1.0))
    t0 = time.perf_counter()
    enumerate_magnetization(s20)
    enum_time = time.perf_counter() - t0
    time_ok = enum_time < 30.0

    detail = (
        f"enum-vs-transfer worst {worst_et:.2e} (ok={enum_ok}); "
        f"N=512 vs closed form worst {np.max(gaps):.2e}, "
        f"{len(missed)}/50 points beyond 1e-8 (ok={limit_ok}{where}); "
        f"metropolis |{est.mean:.6f} - {ref:.6f}| vs 3*se={3*est.std_error:.2e} "
        f"(ok={metro_ok}); N=20 enumeration {enum_time:.2f} s (ok={time_ok})"
    )
    report(7, enum_ok and limit_ok and metro_ok and time_ok, detail)


def test_criterion_8_engine_matches_closed_forms():
    rng = np.random.default_rng(80)
    grid = np.linspace(0.0, math.pi / 2, 100)
    worst = 0.0
    for _ in range(20):
        p = random_pd(rng)
        for gamma in grid:
            worst = max(
                worst,
                np.max(np.abs(extract_block("pd", p, Block.QVC, gamma).row_payoffs
                              - qvc_closed_form(p, gamma))),
                np.max(np.abs(extract_block("pd", p, Block.QVD, gamma).row_payoffs
                              - qvd_closed_form(p, gamma))),
            )
    for _ in range(20):
        c = random_chicken(rng)
        for gamma in grid:
            worst = max(
                worst,
                np.max(np.abs(extract_block("chicken", c, Block.QVSWERVE, gamma).row_payoffs
                              - qvswerve_closed_form(c, gamma))),
                np.max(np.abs(extract_block("chicken", c, Block.QVSTRAIGHT, gamma).row_payoffs
                              - qvstraight_closed_form(c, gamma))),
            )
    ok = worst <= 1e-12
    report(8, ok, f"worst |engine - closed form| = {worst:.2e} over 100-point grids")


def test_criterion_9_mixed_equilibria():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(50):
        c = random_chicken(rng)
        mixed = mixed_nash_symmetric_2x2(classical_chicken_game(c))
        worst = max(worst, abs(mixed.p - c.r / c.s))
        for gamma in rng.uniform(0.02, math.pi / 4 - 0.02, size=20):
            block = extract_block("chicken", c, Block.QVSTRAIGHT, gamma)
            mixed = mixed_nash_symmetric_2x2(block.as_game())
            expected = (c.s - c.r * math.cos(2 * gamma)) / c.s
            worst = max(worst, abs(mixed.p - expected))
    ok = worst <= 1e-12
    report(9, ok, f"max |p - closed form| = {worst:.2e}")


def test_criterion_10_high_temperature_limit():
    rng = np.random.default_rng(100)
    beta = 1e-9
    worst = 0.0
    pd_blocks = (Block.QVC, Block.QVD, Block.CLASSICAL_PD)
    ch_blocks = (Block.QVSWERVE, Block.QVSTRAIGHT, Block.CLASSICAL_CHICKEN)
    for _ in range(40):
        p = random_pd(rng)
        c = random_chicken(rng)
        gamma = rng.uniform(0.0, math.pi / 2)
        for b in pd_blocks:
            worst = max(worst, abs(magnetization(to_ising(extract_block("pd", p, b, gamma), beta))))
        for b in ch_blocks:
            worst = max(worst, abs(magnetization(to_ising(extract_block("chicken", c, b, gamma), beta))))
    ok = worst < 1e-7
    report(10, ok, f"max |m| at beta={beta} is {worst:.2e}")
