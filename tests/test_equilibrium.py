import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classical_chicken_game, classical_pd_game
from qgames import Block, ChickenPayoffs, PDPayoffs, extract_block, quantized_game
from qgames.equilibrium import (
    BEST_RESPONSE_TOL,
    BimatrixGame,
    mixed_nash_symmetric_2x2,
    pure_nash,
)
from qgames.errors import ValidationError


class TestPureNash:
    def test_classical_pd_defects(self):
        g = classical_pd_game(PDPayoffs(3, 5, 0, 1))
        assert [g.label_cell(c) for c in pure_nash(g)] == [("D", "D")]

    def test_maximally_entangled_pd_plays_quantum(self):
        g = quantized_game("pd", PDPayoffs(3, 5, 0, 1), math.pi / 2)
        assert [g.label_cell(c) for c in pure_nash(g)] == [("Q", "Q")]

    def test_classical_chicken_has_two_asymmetric_equilibria(self):
        g = classical_chicken_game(ChickenPayoffs(3, 4))
        named = [g.label_cell(c) for c in pure_nash(g)]
        assert named == [("straight", "swerve"), ("swerve", "straight")]

    def test_qvd_block_flips_with_entanglement(self):
        p = PDPayoffs(3, 5, 0, 1)
        g0 = extract_block("pd", p, Block.QVD, 0.0).as_game()
        assert [g0.label_cell(c) for c in pure_nash(g0)] == [("D", "D")]
        g1 = extract_block("pd", p, Block.QVD, math.pi / 2).as_game()
        assert [g1.label_cell(c) for c in pure_nash(g1)] == [("Q", "Q")]

    def test_qvstraight_above_quarter_pi_is_all_quantum(self):
        c = ChickenPayoffs(3, 4)
        for gamma in (math.pi / 4 + 0.05, 1.0, math.pi / 2):
            g = extract_block("chicken", c, Block.QVSTRAIGHT, gamma).as_game()
            assert [g.label_cell(x) for x in pure_nash(g)] == [("Q", "Q")]

    def test_qvc_block_reports_both_diagonal_cells(self):
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVC, 0.9).as_game()
        assert [g.label_cell(c) for c in pure_nash(g)] == [("C", "C"), ("Q", "Q")]

    def test_degenerate_tie_reports_every_cell(self):
        # at gamma=0 the quantum row/column duplicates cooperate: all cells tie
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVC, 0.0).as_game()
        assert pure_nash(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(st.integers(-80, 80), min_size=8, max_size=8),
    lam=st.integers(-160, 160),
    mu=st.integers(-160, 160),
)
def test_pure_nash_invariant_under_column_shifts(data, lam, mu):
    """Adding a constant to a column of the row matrix (and the mirrored row
    of the column matrix) never changes best responses.

    Dyadic payoffs keep the shifted sums exact, so tie sets cannot flip
    through rounding at the tolerance boundary.
    """
    row = np.array(data[:4], dtype=float).reshape(2, 2) / 8
    col = np.array(data[4:], dtype=float).reshape(2, 2) / 8
    lam, mu = lam / 8, mu / 8
    g = BimatrixGame(row, col, ("a", "b"))
    shifted_row = row + np.array([[lam, mu], [lam, mu]])  # per-column shift for row player
    shifted_col = col + np.array([[lam, lam], [mu, mu]])  # per-row shift for column player
    g2 = BimatrixGame(shifted_row, shifted_col, ("a", "b"))
    assert pure_nash(g) == pure_nash(g2)


class TestMixedNash:
    def test_classical_chicken_mixes_r_over_s(self):
        g = classical_chicken_game(ChickenPayoffs(3, 4))  # ordered (straight, swerve)
        mixed = mixed_nash_symmetric_2x2(g)
        assert mixed.p == pytest.approx(3 / 4, abs=1e-12)

    def test_qvstraight_below_quarter_pi(self):
        c = ChickenPayoffs(3, 4)
        for gamma in (0.1, 0.3, 0.6):
            g = extract_block("chicken", c, Block.QVSTRAIGHT, gamma).as_game()
            mixed = mixed_nash_symmetric_2x2(g)
            expected = (c.s - c.r * math.cos(2 * gamma)) / c.s
            assert mixed.p == pytest.approx(expected, abs=1e-12)

    def test_qvstraight_at_quarter_pi_is_degenerate(self):
        c = ChickenPayoffs(3, 4)
        g = extract_block("chicken", c, Block.QVSTRAIGHT, math.pi / 4).as_game()
        with pytest.warns(UserWarning, match="boundary"):
            assert mixed_nash_symmetric_2x2(g) is None

    def test_no_interior_point_in_classical_pd(self):
        g = classical_pd_game(PDPayoffs(3, 5, 0, 1))
        # dominant strategy: indifference point falls outside (0, 1)
        assert mixed_nash_symmetric_2x2(g) is None

    def test_rejects_non_symmetric_game(self):
        g = BimatrixGame([[1, 0], [0, 1]], [[2, 5], [7, 3]], ("a", "b"))
        with pytest.raises(ValidationError, match="symmetric"):
            mixed_nash_symmetric_2x2(g)

    def test_symmetry_check_decides_as_numpy_allclose(self):
        # offsets at the tolerance and one ulp either side of it, on exact
        # (0, dyadic) and random payoffs
        tol = BEST_RESPONSE_TOL
        edges = [0.0, tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 2 * tol, 1e-3]
        rng = np.random.default_rng(12)
        seen = set()
        for k in range(3000):
            row = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4)
            if k % 3 == 0:
                row = rng.integers(-4, 5, size=(2, 2)) / 4.0
            if k % 5 == 0:
                row[:] = 0.0
            offsets = rng.choice(edges, size=(2, 2)) * rng.choice((-1.0, 1.0), size=(2, 2))
            offsets[rng.random((2, 2)) < 0.5] = 0.0
            g = BimatrixGame(row, row.T + offsets, ("a", "b"))
            symmetric = bool(np.allclose(g.col, g.row.T, rtol=0.0, atol=tol))
            seen.add(symmetric)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # degenerate games warn by design
                try:
                    mixed_nash_symmetric_2x2(g)
                    accepted = True
                except ValidationError:
                    accepted = False
            assert accepted == symmetric, (row, offsets)
        assert seen == {True, False}

    @pytest.mark.parametrize("row, p", [
        ([[1e308, -1e308], [-1e308, 1e308]], 0.5),
        ([[1.7e308, -1.7e308], [-1.7e308, 1.0]], 0.33333333333333337),
    ])
    def test_overflowing_payoff_differences_keep_the_mixed_point(self, row, p):
        # (a - c) + (d - b) overflows; p does not depend on the payoff scale
        scaled = [[x * 2.0**-4 for x in r] for r in row]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mixed_nash_symmetric_2x2(BimatrixGame(row, np.transpose(row), ("a", "b")))
            small = mixed_nash_symmetric_2x2(BimatrixGame(scaled, np.transpose(scaled), ("a", "b")))
        assert got.p == small.p == p
        assert type(got.p) is float

    def test_boundary_warning_prints_a_plain_float(self):
        g = BimatrixGame([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], ("a", "b"))
        with pytest.warns(UserWarning) as record:
            assert mixed_nash_symmetric_2x2(g) is None
        assert [str(w.message) for w in record] == [
            "indifference point p=0.0 sits on the boundary; degenerate"]

    def test_rejects_larger_games(self):
        g = quantized_game("pd", PDPayoffs(3, 5, 0, 1), 0.5)
        with pytest.raises(ValidationError, match="2x2"):
            mixed_nash_symmetric_2x2(g)


def test_bimatrix_validation():
    with pytest.raises(ValidationError):
        BimatrixGame([[1, 2]], [[1, 2]], ("a", "b"))
    with pytest.raises(ValidationError):
        BimatrixGame([[1]], [[1]], ("a",))
    with pytest.raises(ValidationError):
        BimatrixGame([[np.inf, 0], [0, 1]], [[1, 0], [0, 1]], ("a", "b"))


def test_bimatrix_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="distinct"):
        BimatrixGame(np.eye(3), np.eye(3), ("C", "C", "Q"))
