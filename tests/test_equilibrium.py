import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classical_chicken_game, classical_pd_game, random_chicken, random_pd
from qgames import Block, ChickenPayoffs, PDPayoffs, extract_block, quantized_game
from qgames.catalog import _BLOCKS, CHICKEN, PD
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

    @pytest.mark.parametrize("gap, cells", [
        (5e-10, [(0, 0), (0, 1), (1, 0), (1, 1)]),  # within 1e-9: the off-diagonal cells tie
        (2e-9, [(0, 0), (1, 1)]),
    ])
    def test_best_response_tie_tolerance_is_1e_9(self, gap, cells):
        # against the first column, the second row falls short of the best by `gap`
        g = BimatrixGame(np.array([[1.0, 0.0], [1.0 - gap, 0.0]]), ("a", "b"))
        assert pure_nash(g) == cells

    def test_degenerate_tie_reports_every_cell(self):
        # at gamma=0 the quantum row/column duplicates cooperate: all cells tie
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVC, 0.0).as_game()
        assert pure_nash(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(st.integers(-80, 80), min_size=4, max_size=4),
    lam=st.integers(-160, 160),
    mu=st.integers(-160, 160),
)
def test_pure_nash_invariant_under_column_shifts(data, lam, mu):
    """Adding a constant to a column of the row matrix (which adds it to the
    mirrored row of the column player's) never changes best responses.

    Dyadic payoffs keep the shifted sums exact, so tie sets cannot flip
    through rounding at the tolerance boundary.
    """
    row = np.array(data, dtype=float).reshape(2, 2) / 8
    lam, mu = lam / 8, mu / 8
    g = BimatrixGame(row, ("a", "b"))
    g2 = BimatrixGame(row + np.array([[lam, mu], [lam, mu]]), ("a", "b"))  # per-column shift
    assert np.array_equal(g2.row.T, g.row.T + np.array([[lam, lam], [mu, mu]]))
    assert pure_nash(g) == pure_nash(g2)


def two_table_pure_nash(row, col):
    """The explicit double loop over both players' tables, as pure_nash read
    them when a game stored its column player's table apart."""
    rbest = row.max(axis=0) - BEST_RESPONSE_TOL
    cbest = col.max(axis=1) - BEST_RESPONSE_TOL
    return [(i, j) for i in range(len(row)) for j in range(len(row))
            if row[i, j] >= rbest[j] and col[i, j] >= cbest[i]]


class TestPureNashMatchesTheTwoTableLoop:
    """pure_nash's one best-response matrix picks the cells of the double loop
    over (row, row.T), as the same list of (int, int) in row-major order."""

    @staticmethod
    def assert_same_cells(row, labels):
        got = pure_nash(BimatrixGame(row, labels))
        assert got == two_table_pure_nash(row, row.T), row
        assert all(type(c) is tuple and [type(k) for k in c] == [int, int] for c in got)
        return got

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dyadic_games_with_entries_at_the_tie_margin(self, n):
        # below each column's maximum by exactly BEST_RESPONSE_TOL and one ulp either side
        # of it: the cells where a best-response decision turns.  At entries of about 1e308
        # a positive maximum less BEST_RESPONSE_TOL rounds back to the maximum.
        rng = np.random.default_rng(n)
        labels = tuple("abcde"[:n])
        for scale in (0.25, 2.0**1020):
            decided = set()
            for _ in range(400):
                row = rng.integers(-8, 9, size=(n, n)) * scale
                edge = row.max(axis=0) - BEST_RESPONSE_TOL
                edges = np.stack([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)])
                pick = rng.integers(0, 3, size=(n, n))
                moved = (rng.random((n, n)) < 0.5) & (row < row.max(axis=0))
                row = np.where(moved, edges[pick, np.arange(n)], row)
                cells = self.assert_same_cells(row, labels)
                decided |= {(int(pick[i, j]), (i, j) in cells)
                            for i, j in zip(*np.nonzero(moved & moved.T))}
            # an entry one ulp below the margin is never a best response, the other two can be
            assert decided == {(0, False), (1, False), (1, True), (2, False), (2, True)}, scale

    @pytest.mark.parametrize("kind", [PD, CHICKEN])
    def test_quantized_games_and_their_blocks(self, kind):
        rng = np.random.default_rng(len(kind))
        grid = np.linspace(0.0, math.pi / 2, 33)
        blocks = [b for b, (k, _) in _BLOCKS.items() if k == kind]
        for _ in range(20):
            payoffs = random_pd(rng) if kind == PD else random_chicken(rng)
            for gamma in [0.0, math.pi / 4, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 5)]:
                game = quantized_game(kind, payoffs, float(gamma))
                self.assert_same_cells(game.row, game.labels)
            for block_id in blocks:
                stack = extract_block(kind, payoffs, block_id, grid)
                for row in stack.row_payoffs:
                    self.assert_same_cells(row, stack.labels)


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

    @pytest.mark.parametrize("row, p", [
        ([[1e308, -1e308], [-1e308, 1e308]], 0.5),
        ([[1.7e308, -1.7e308], [-1.7e308, 1.0]], 0.33333333333333337),
    ])
    def test_overflowing_payoff_differences_keep_the_mixed_point(self, row, p):
        # (a - c) + (d - b) overflows; p does not depend on the payoff scale
        scaled = [[x * 2.0**-4 for x in r] for r in row]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mixed_nash_symmetric_2x2(BimatrixGame(row, ("a", "b")))
            small = mixed_nash_symmetric_2x2(BimatrixGame(scaled, ("a", "b")))
        assert got.p == small.p == p
        assert type(got.p) is float

    def test_boundary_warning_prints_a_plain_float(self):
        g = BimatrixGame([[1.0, 0.0], [0.0, 0.0]], ("a", "b"))
        with pytest.warns(UserWarning) as record:
            assert mixed_nash_symmetric_2x2(g) is None
        assert [str(w.message) for w in record] == [
            "indifference point p=0.0 sits on the boundary; degenerate"]

    def test_all_tie_game_warns_and_has_no_mixed_point(self):
        # unentangled QvC: Q plays as C, so every cell pays r
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVC, 0.0).as_game()
        assert g.row.tolist() == [[3.0, 3.0], [3.0, 3.0]]
        with pytest.warns(UserWarning) as record:
            assert mixed_nash_symmetric_2x2(g) is None
        assert [str(w.message) for w in record] == [
            "degenerate game: both strategies always tie, no unique mixed point"]

    def test_rejects_larger_games(self):
        g = quantized_game("pd", PDPayoffs(3, 5, 0, 1), 0.5)
        with pytest.raises(ValidationError, match="2x2"):
            mixed_nash_symmetric_2x2(g)


def test_bimatrix_validation():
    with pytest.raises(ValidationError):
        BimatrixGame([[1, 2]], ("a", "b"))
    with pytest.raises(ValidationError):
        BimatrixGame([[1]], ("a",))
    with pytest.raises(ValidationError):
        BimatrixGame([[np.inf, 0], [0, 1]], ("a", "b"))


def test_bimatrix_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="distinct"):
        BimatrixGame(np.eye(3), ("C", "C", "Q"))
