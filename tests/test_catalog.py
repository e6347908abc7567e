import math

import numpy as np
import pytest

from conftest import (
    classical_chicken_matrix,
    classical_pd_matrix,
    qvc_closed_form,
    qvd_closed_form,
    qvstraight_closed_form,
    qvswerve_closed_form,
    random_chicken,
    random_pd,
)
from qgames import Block, ChickenPayoffs, PDPayoffs, StrategyBlock, extract_block, quantized_game
from qgames.errors import ValidationError


class TestPDPayoffs:
    def test_standard_values_build_the_expected_table(self):
        # the circuit leaves a ~1e-32 residue where the sucker payoff is 0
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.CLASSICAL_PD, 0.0).as_game()
        assert np.max(np.abs(g.row - [[3, 0], [5, 1]])) <= 1e-12
        assert np.max(np.abs(g.col - [[3, 5], [0, 1]])) <= 1e-12
        assert g.labels == ("C", "D")

    def test_violated_ordering_names_the_inequality(self):
        with pytest.raises(ValidationError, match="p > s"):
            PDPayoffs(3, 5, 1, 0)
        with pytest.raises(ValidationError, match="t > r"):
            PDPayoffs(1, 1, 0, 0.5)
        with pytest.raises(ValidationError, match="r > p"):
            PDPayoffs(1, 5, 0, 2)

    def test_any_ordering_respecting_tuple_is_accepted(self):
        PDPayoffs(2, 3, 0, 1)


class TestChickenPayoffs:
    def test_strictly_ordered_is_silent(self):
        g = extract_block("chicken", ChickenPayoffs(3, 4), Block.CLASSICAL_CHICKEN, 0.0).as_game()
        assert np.array_equal(g.row, [[-4, 3], [-3, 0]])
        assert np.array_equal(g.col, [[-4, -3], [3, 0]])
        assert g.labels == ("straight", "swerve")

    def test_equal_payoffs_warn_but_build(self):
        with pytest.warns(UserWarning, match="s == r"):
            ChickenPayoffs(4, 4)

    def test_reversed_ordering_rejected(self):
        with pytest.raises(ValidationError, match="s > r"):
            ChickenPayoffs(4, 3)
        with pytest.raises(ValidationError, match="r > 0"):
            ChickenPayoffs(0, 1)


class TestExtractBlock:
    def test_qvd_at_zero_entanglement_is_the_classical_block(self):
        blk = extract_block("pd", PDPayoffs(3, 5, 0, 1), "QvD", 0.0)
        assert np.allclose(blk.row_payoffs, [[3, 0], [5, 1]], atol=1e-12)
        assert blk.labels == ("Q", "D")

    def test_qvc_structure_any_gamma(self):
        p = PDPayoffs(3, 5, 0, 1)
        for gamma in (0.0, 0.4, 1.0, math.pi / 2):
            blk = extract_block("pd", p, Block.QVC, gamma)
            m = blk.row_payoffs
            off = p.r * math.cos(gamma) ** 2 + p.p * math.sin(gamma) ** 2
            assert m[0, 0] == pytest.approx(p.r, abs=1e-12)
            assert m[1, 1] == pytest.approx(p.r, abs=1e-12)
            assert m[0, 1] == pytest.approx(off, abs=1e-12)
            assert m[1, 0] == pytest.approx(off, abs=1e-12)

    def test_qvstraight_at_quarter_pi(self):
        with pytest.warns(UserWarning):
            ch = ChickenPayoffs(4, 4)
        blk = extract_block("chicken", ch, "QvStraight", math.pi / 4)
        assert np.allclose(blk.row_payoffs, [[0, 0], [0, -4]], atol=1e-12)

    def test_block_and_game_kind_must_match(self):
        with pytest.raises(ValidationError, match="belongs to"):
            extract_block("chicken", ChickenPayoffs(3, 4), "QvD", 0.5)
        with pytest.raises(ValidationError, match="PDPayoffs"):
            extract_block("pd", ChickenPayoffs(3, 4), "QvD", 0.5)

    def test_unknown_block_id_rejected(self):
        with pytest.raises(ValueError):
            extract_block("pd", PDPayoffs(3, 5, 0, 1), "QvX", 0.5)

    @pytest.mark.parametrize("kind,payoffs,block_id", [
        ("pd", PDPayoffs(3, 5, 0, 1), Block.QVC),
        ("pd", PDPayoffs(3, 5, 0, 1), Block.QVD),
        ("pd", PDPayoffs(3, 5, 0, 1), Block.CLASSICAL_PD),
        ("chicken", ChickenPayoffs(3, 4), Block.QVSWERVE),
        ("chicken", ChickenPayoffs(3, 4), Block.QVSTRAIGHT),
        ("chicken", ChickenPayoffs(3, 4), Block.CLASSICAL_CHICKEN),
    ])
    def test_grid_matches_scalar_calls_bit_for_bit(self, kind, payoffs, block_id):
        rng = np.random.default_rng(14)
        for grid in (np.linspace(0, math.pi / 2, 200), rng.uniform(0, math.pi / 2, 2000)):
            stacked = extract_block(kind, payoffs, block_id, grid)
            assert stacked.row_payoffs.shape == (grid.size, 2, 2)
            for k, gamma in enumerate(grid):
                one = extract_block(kind, payoffs, block_id, float(gamma))
                assert np.array_equal(stacked.row_payoffs[k], one.row_payoffs)
                assert (stacked.labels, stacked.block_id) == (one.labels, one.block_id)

    @pytest.mark.parametrize("bad", [math.nan, 2.0, -0.1])
    def test_grid_with_nan_or_out_of_range_gamma_rejected(self, bad):
        with pytest.raises(ValidationError, match="gamma"):
            extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, np.array([0.1, bad, 0.3]))

    def test_stacked_block_is_not_a_game(self):
        stacked = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, np.array([0.1, 0.3]))
        with pytest.raises(ValidationError):
            stacked.as_game()


class TestStrategyBlock:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 2, 2, 2), (2,), ()])
    def test_rejects_shapes_other_than_2x2_or_a_stack(self, shape):
        with pytest.raises(ValidationError, match="finite 2x2 matrix"):
            StrategyBlock(np.zeros(shape), Block.QVD)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        m = np.zeros((3, 2, 2))
        m[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="finite 2x2 matrix"):
            StrategyBlock(m, Block.QVD)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2), (5, 2, 2)])
    def test_accepts_one_block_or_a_stack(self, shape):
        assert StrategyBlock(np.ones(shape), Block.QVD).row_payoffs.shape == shape


class TestQuantizedGame:
    def test_carries_the_strategy_labels(self):
        assert quantized_game("pd", PDPayoffs(3, 5, 0, 1), 0.5).labels == ("C", "D", "Q")
        game = quantized_game("chicken", ChickenPayoffs(3, 4), 0.5)
        assert game.labels == ("swerve", "straight", "Q")

    def test_gamma_grid_rejected(self):
        with pytest.raises(ValidationError):
            quantized_game("pd", PDPayoffs(3, 5, 0, 1), np.array([0.1, 0.5]))

    def test_game_kind_and_payoff_type_checked(self):
        with pytest.raises(ValidationError, match="unknown game kind 'stag'"):
            quantized_game("stag", PDPayoffs(3, 5, 0, 1), 0.5)
        with pytest.raises(ValidationError, match="chicken needs ChickenPayoffs, got PDPayoffs"):
            quantized_game("chicken", PDPayoffs(3, 5, 0, 1), 0.5)


class TestEngineMatchesClosedForms:
    """Circuit-derived blocks against the independent closed forms."""

    def test_pd_blocks_across_grid(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0, math.pi / 2, 40)
        for _ in range(5):
            p = random_pd(rng)
            for gamma in grid:
                got = extract_block("pd", p, Block.QVC, gamma).row_payoffs
                assert np.max(np.abs(got - qvc_closed_form(p, gamma))) <= 1e-12
                got = extract_block("pd", p, Block.QVD, gamma).row_payoffs
                assert np.max(np.abs(got - qvd_closed_form(p, gamma))) <= 1e-12
            got = extract_block("pd", p, Block.CLASSICAL_PD, 0.3).row_payoffs
            assert np.max(np.abs(got - classical_pd_matrix(p))) <= 1e-12

    def test_chicken_blocks_across_grid(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(0, math.pi / 2, 40)
        for _ in range(5):
            c = random_chicken(rng)
            for gamma in grid:
                got = extract_block("chicken", c, Block.QVSWERVE, gamma).row_payoffs
                assert np.max(np.abs(got - qvswerve_closed_form(c, gamma))) <= 1e-12
                got = extract_block("chicken", c, Block.QVSTRAIGHT, gamma).row_payoffs
                assert np.max(np.abs(got - qvstraight_closed_form(c, gamma))) <= 1e-12
            got = extract_block("chicken", c, Block.CLASSICAL_CHICKEN, 0.7).row_payoffs
            assert np.max(np.abs(got - classical_chicken_matrix(c))) <= 1e-12

    def test_zero_entanglement_degeneracy(self):
        # quantum coincides with cooperate/swerve: constant-row blocks
        blk = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVC, 0.0)
        assert np.ptp(blk.row_payoffs) == 0.0
        blk = extract_block("chicken", ChickenPayoffs(3, 4), Block.QVSWERVE, 0.0)
        assert np.ptp(blk.row_payoffs) == 0.0


def test_block_as_game_is_symmetric():
    blk = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, 0.8)
    g = blk.as_game()
    assert g.labels == ("Q", "D")
    assert np.array_equal(g.col, g.row.T)
