import math
import re

import numpy as np
import pytest

from conftest import (
    classical_chicken_matrix,
    classical_pd_matrix,
    clear_circuit_caches,
    object_weighed,
    qvc_closed_form,
    qvd_closed_form,
    qvstraight_closed_form,
    qvswerve_closed_form,
    random_chicken,
    random_pd,
    uncached_extended_matrix,
)
from qgames import (
    Block,
    ChickenPayoffs,
    PDPayoffs,
    StrategyBlock,
    extract_block,
    phase_transition_gamma,
    quantized_game,
)
from qgames import cli, eisert
from qgames.catalog import _BLOCKS, _STRATEGIES, GAMES
from qgames.errors import ConsistencyError, ValidationError


class TestPDPayoffs:
    def test_standard_values_build_the_expected_table(self):
        # the circuit leaves a ~1e-32 residue where the sucker payoff is 0
        g = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.CLASSICAL_PD, 0.0).as_game()
        assert np.max(np.abs(g.row - [[3, 0], [5, 1]])) <= 1e-12
        assert np.max(np.abs(g.row.T - [[3, 5], [0, 1]])) <= 1e-12
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

    def test_non_finite_payoff_rejected(self):
        with pytest.raises(ValidationError, match="payoffs must be finite"):
            PDPayoffs(math.nan, 5, 0, 1)


class TestChickenPayoffs:
    def test_strictly_ordered_is_silent(self):
        g = extract_block("chicken", ChickenPayoffs(3, 4), Block.CLASSICAL_CHICKEN, 0.0).as_game()
        assert np.array_equal(g.row, [[-4, 3], [-3, 0]])
        assert np.array_equal(g.row.T, [[-4, -3], [3, 0]])
        assert g.labels == ("straight", "swerve")

    def test_equal_payoffs_warn_but_build(self):
        with pytest.warns(UserWarning, match="s == r"):
            ChickenPayoffs(4, 4)

    def test_reversed_ordering_rejected(self):
        with pytest.raises(ValidationError, match="s > r"):
            ChickenPayoffs(4, 3)
        with pytest.raises(ValidationError, match="r > 0"):
            ChickenPayoffs(0, 1)

    def test_non_finite_payoff_rejected(self):
        with pytest.raises(ValidationError, match="payoffs must be finite"):
            ChickenPayoffs(math.inf, 1)


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
        for grid in (np.array([0.1, 0.3]), np.array([0.1])):
            stacked = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, grid)
            with pytest.raises(ValidationError) as err:
                stacked.as_game()
            assert str(err.value) == "as_game takes one 2x2 block, not a stack along gamma"


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

    @pytest.mark.parametrize("grid", [[0.7], np.array([0.1, 0.5]), np.linspace(0.0, 1.5, 1024)],
                             ids=["list", "grid", "1024-grid"])
    def test_a_grid_is_refused_before_the_circuit_runs(self, circuit_passes, grid):
        # the gamma is checked first, so a grid is named before an unknown game kind
        for kind in ("pd", "stag"):
            with pytest.raises(ValidationError, match="quantized_game takes one gamma, not a grid"):
                quantized_game(kind, PDPayoffs(3, 5, 0, 1), grid)
        assert circuit_passes == [] and eisert._probs.cache_info().currsize == 0

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


@pytest.mark.parametrize("kind,block_id,labels", [
    ("pd", None, ("C", "D", "Q")),
    ("pd", Block.QVC, ("C", "Q")),
    ("pd", Block.QVD, ("Q", "D")),
    ("pd", Block.CLASSICAL_PD, ("C", "D")),
    ("chicken", None, ("swerve", "straight", "Q")),
    ("chicken", Block.QVSWERVE, ("swerve", "Q")),
    ("chicken", Block.QVSTRAIGHT, ("Q", "straight")),
    ("chicken", Block.CLASSICAL_CHICKEN, ("straight", "swerve")),
], ids=str)
def test_every_game_and_block_carries_its_strategy_labels(kind, block_id, labels):
    """quantized_game (block None) and each block read their labels off their game's row."""
    payoffs = {"pd": PDPayoffs(3, 5, 0, 1), "chicken": ChickenPayoffs(3, 4)}[kind]
    if block_id is None:
        assert quantized_game(kind, payoffs, 0.5).labels == labels
        return
    block = extract_block(kind, payoffs, block_id, 0.5)
    assert block.labels == block.as_game().labels == labels
    assert extract_block(kind, payoffs, block_id, np.array([0.1, 0.5])).labels == labels


def test_block_as_game_is_symmetric():
    blk = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, 0.8)
    g = blk.as_game()
    assert g.labels == ("Q", "D")
    assert np.array_equal(g.row, blk.row_payoffs)  # one table: the column player reads its .T


@pytest.mark.parametrize("call", [
    lambda: extract_block("pd", PDPayoffs(3, 5, 0, 1), "nope", 0.1),
    lambda: phase_transition_gamma("pd", PDPayoffs(3, 5, 0, 1), "nope"),
    lambda: StrategyBlock(np.eye(2), "nope"),
], ids=["extract_block", "phase_transition_gamma", "StrategyBlock"])
def test_unknown_block_id_is_a_validation_error(call):
    message = f"unknown block 'nope'; expected one of {[b.value for b in Block]}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


_RNG = np.random.default_rng(32)
# ints above 2**63, stored as the floats the circuit weighs
BIG_INT_PD = PDPayoffs(2**64 + 1, 2**65 + 3, -(2**70), 2**63 + 5)
SLICE_PAYOFFS = [
    *(("pd", random_pd(_RNG)) for _ in range(3)),
    *(("chicken", random_chicken(_RNG)) for _ in range(3)),
    ("pd", PDPayoffs(3, 5, 0, 1)),
    ("chicken", ChickenPayoffs(3, 4)),
    ("pd", BIG_INT_PD),
    ("chicken", ChickenPayoffs(2**64 + 1, 2**66)),
    ("pd", PDPayoffs(0.0, 1.0, -2.0, -1.0)),
    ("pd", PDPayoffs(-0.0, 1.0, -2.0, -1.0)),
    ("pd", PDPayoffs(2.0, 3.0, -0.0, 1.0)),
]
# 0.0 before -0.0, so a cache keyed on == would hand -0.0 the entry of 0.0
SLICE_GAMMAS = [0.0, -0.0, 5e-324, math.pi / 2, *_RNG.uniform(0.0, math.pi / 2, 2),
                float(_RNG.uniform(0.0, math.pi / 2)),
                np.array([0.3]), np.array([0.0, -0.0, 5e-324, *_RNG.uniform(0.0, math.pi / 2, 4)]),
                np.linspace(0.0, math.pi / 2, 200)]


@pytest.fixture
def circuit_runs(monkeypatch):
    """The (args, kwargs, payoffs) of every `extended_matrix` call, with the
    probability and table caches empty before and after the test."""
    runs = []
    run = eisert.extended_matrix

    def counted(*args, **kwargs):
        runs.append((args, kwargs, run(*args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(eisert, "extended_matrix", counted)
    clear_circuit_caches()
    yield runs
    clear_circuit_caches()


class TestBlockIsItsGameSlice:
    """A circuit cell depends only on its own strategy pair, so every block,
    at a scalar gamma or along a grid, is its game's slice bit for bit."""

    @pytest.mark.parametrize("kind,payoffs", SLICE_PAYOFFS, ids=repr)
    def test_every_block_keeps_every_bit(self, circuit_runs, kind, payoffs):
        weights = GAMES[kind][1](payoffs)
        for block_id, (block_kind, strategies) in _BLOCKS.items():
            if block_kind != kind:
                continue
            cells = np.array(strategies)  # each member is its own index in _STRATEGIES
            for gamma in SLICE_GAMMAS:
                want = uncached_extended_matrix(weights, strategies, gamma)
                got = extract_block(kind, payoffs, block_id, gamma).row_payoffs
                if np.ndim(gamma) == 0:
                    game = quantized_game(kind, payoffs, gamma).row
                else:
                    game = eisert.extended_matrix(weights, _STRATEGIES, gamma)
                assert np.array_equal(bits(got), bits(want)), (block_id, gamma)
                assert np.array_equal(bits(game[..., cells[:, None], cells]), bits(want))

    @pytest.mark.parametrize("gamma", [0.4, np.array([0.1, 0.4]), SLICE_GAMMAS[-1]],
                             ids=["float", "grid", "200-grid"])
    def test_big_ints_weigh_as_float64_with_the_object_weighing_bits(self, gamma):
        """The payoffs hold floats, so the weights are floats, and the blocks keep the
        bits the exact ints gave when they weighed as an object array."""
        assert all(type(w) is float for w in GAMES["pd"][1](BIG_INT_PD))
        exact = [2**64 + 1, -(2**70), 2**65 + 3, 2**63 + 5]  # BIG_INT_PD's r, s, t, p
        for block_id in (Block.QVC, Block.QVD, Block.CLASSICAL_PD):
            got = extract_block("pd", BIG_INT_PD, block_id, gamma).row_payoffs
            want = object_weighed(exact, _BLOCKS[block_id][1], gamma)
            assert got.dtype == np.float64 and np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("gamma", [0.4, np.array([0.1, 0.4])], ids=["float", "grid"])
    def test_a_big_int_block_is_float64(self, gamma):
        # the object table is converted once, where the block is built unchecked
        block = extract_block("pd", BIG_INT_PD, Block.QVD, gamma)
        assert block.row_payoffs.dtype == np.float64
        if np.ndim(gamma) == 0:
            assert block.as_game().row.dtype == np.float64


class TestProbabilityCache:
    """Under every game and block, eisert caches the circuit's probabilities per gamma, so
    new payoffs at a gamma met before run no circuit."""

    @pytest.mark.parametrize("kind,payoffs", SLICE_PAYOFFS, ids=repr)
    def test_every_cached_result_keeps_the_uncached_bits(self, circuit_passes, kind, payoffs):
        weights = GAMES[kind][1](payoffs)
        sets = [_STRATEGIES, *(cells for k, cells in _BLOCKS.values() if k == kind)]
        for gamma in SLICE_GAMMAS:
            for _ in range(2):  # a miss, then a hit
                got = eisert.extended_matrix(weights, _STRATEGIES, gamma)
                for strategies in sets:
                    want = uncached_extended_matrix(weights, strategies, gamma)
                    i = np.array(strategies)  # each member is its own index in _STRATEGIES
                    cells = got[..., i[:, None], i]
                    assert cells.dtype == want.dtype and np.array_equal(bits(cells), bits(want))

    def test_a_sweep_runs_no_circuit_per_curve_and_one_per_transition(self, circuit_passes,
                                                                       capsys):
        requests = [("pd", "QvD", ["--r", "3", "--t", "5", "--s", "0", "--p", "1"]),
                    ("chicken", "QvStraight", ["--r", "3", "--s", "4"]),
                    ("pd", "QvD", ["--r", "4", "--t", "6", "--s", "-1", "--p", "2"]),
                    ("chicken", "QvStraight", ["--r", "2", "--s", "3"])]
        runs = []
        for game, block, flags in requests:
            for argv in (["curve", "--game", game, *flags, "--block", block, "--output", "-"],
                         ["transition", "--game", game, *flags, "--output", "-"]):
                before = len(circuit_passes)
                assert cli.main(argv) == 0
                runs.append([g.shape for g in circuit_passes[before:]])
        capsys.readouterr()
        # cold: the curve's grid, then the two endpoints and one midpoint pass; both games
        # weigh one strategy order, so every later curve runs no circuit and every later
        # transition only the midpoints of its own crossing
        assert runs[0] == [(200,)] and runs[1][:2] == [(), ()] and len(runs[1]) == 3
        for curve, transition in (runs[2:4], runs[4:6], runs[6:8]):
            assert curve == [] and len(transition) == 1 and len(transition[0]) == 1


class TestOneRoute:
    """Every game and block call reads its game's 3x3 table from one `extended_matrix`
    call: at a float gamma the table is weighed once and kept by catalog's table cache,
    along a grid it is weighed on every call; circuit runs are shared through eisert's
    probability cache."""

    @pytest.mark.parametrize("gamma", [0.7, np.float64(0.7), np.array(0.7), [0.7],
                                       np.linspace(0.0, 1.0, 7)],
                             ids=["float", "float64", "0-d", "list", "grid"])
    @pytest.mark.parametrize("kind,payoffs", [("pd", PDPayoffs(3, 5, 0, 1)),
                                              ("chicken", ChickenPayoffs(3, 4))])
    def test_a_game_and_its_three_blocks_run_the_circuit_once(self, circuit_runs,
                                                              circuit_passes, kind, payoffs,
                                                              gamma):
        if np.ndim(gamma) == 0:
            quantized_game(kind, payoffs, gamma)
        for block_id, (block_kind, _) in _BLOCKS.items():
            if block_kind == kind:
                extract_block(kind, payoffs, block_id, gamma)
        # at a float gamma the game weighs its table and its blocks read it; a grid is not a
        # game, and each block weighs it again
        calls = 1 if np.ndim(gamma) == 0 else 3
        assert [kwargs["strategies"] for _, kwargs, _ in circuit_runs] == [_STRATEGIES] * calls
        assert len(circuit_passes) == 1

    CURVES = [
        ("pd", ["--r", "3", "--t", "5", "--s", "0", "--p", "1"], ["QvD", "QvC", "ClassicalPD"]),
        ("chicken", ["--r", "3", "--s", "4"], ["QvStraight", "QvSwerve", "ClassicalChicken"]),
    ]

    @pytest.mark.parametrize("game,flags,blocks", CURVES)
    def test_a_curve_after_another_block_of_its_game_runs_no_circuit(self, circuit_passes,
                                                                     capsys, game, flags,
                                                                     blocks):
        """Nor after a block of the other game: both games weigh one strategy order."""
        other = next((g, f, b) for g, f, b in self.CURVES if g != game)
        runs = []
        for kind, kind_flags, kind_blocks in ((game, flags, blocks), other):
            for block in kind_blocks:
                before = len(circuit_passes)
                assert cli.main(["curve", "--game", kind, *kind_flags, "--block", block]) == 0
                runs.append(len(circuit_passes) - before)
        capsys.readouterr()
        assert runs == [1, 0, 0, 0, 0, 0]

    def test_writing_into_a_result_leaves_the_next_call_unchanged(self, circuit_passes):
        payoffs = PDPayoffs(3, 5, 0, 1)
        grid = np.array([0.1, 0.4])
        results = [lambda: quantized_game("pd", payoffs, 0.4).row,
                   lambda: extract_block("pd", payoffs, Block.QVC, 0.4).row_payoffs,
                   lambda: extract_block("pd", payoffs, Block.QVD, grid).row_payoffs]
        for result in results:
            first = result()
            want = first.copy()
            first[...] = 99.0
            assert np.array_equal(bits(result()), bits(want))
        assert len(circuit_passes) == 2  # one for the gamma 0.4, one for the grid

    @pytest.mark.parametrize("gamma", [0.3, np.float64(0.3), np.linspace(0.0, 1.0, 7),
                                       np.linspace(0.0, 1.0, 2000)],
                             ids=["float", "float64", "grid", "uncached-grid"])
    def test_each_extract_block_call_checks_gamma_once(self, circuit_passes, monkeypatch,
                                                       gamma):
        checks = []
        check = eisert.check_gamma
        monkeypatch.setattr(eisert, "check_gamma", lambda g: checks.append(g) or check(g))
        for _ in range(2):  # a miss, then a hit of the probability cache
            extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, gamma)
            extract_block("chicken", ChickenPayoffs(3, 4), Block.QVSWERVE, gamma)
        # at a float gamma each game's first call weighs its table, checking the gamma inside
        # extended_matrix, and its second reads the kept table; a grid is checked on each call
        assert len(checks) == (2 if np.ndim(gamma) == 0 else 4)

    def test_a_consistency_error_is_not_cached(self, circuit_runs, monkeypatch):
        run = eisert.extended_matrix

        def fails_once(*args, **kwargs):
            monkeypatch.setattr(eisert, "extended_matrix", run)
            run(*args, **kwargs)
            raise ConsistencyError("state norm drifted")

        monkeypatch.setattr(eisert, "extended_matrix", fails_once)
        with pytest.raises(ConsistencyError):
            extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, 0.9)
        got = [extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, 0.9).row_payoffs
               for _ in range(2)]  # a miss, then a hit of the table cache
        assert len(circuit_runs) == 2
        grid = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, np.array([0.9]))
        assert all(np.array_equal(bits(g), bits(grid.row_payoffs[0])) for g in got)


class TestTableCache:
    """catalog keeps the last 16 tables at a real scalar gamma, keyed on the float64 bits of
    the four weights and the gamma; a hit hands out the kept table's cells, never the table."""

    def test_a_quantize_and_its_three_blocks_weigh_one_table(self, circuit_runs, capsys):
        assert cli.main(["quantize", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
                         "--p", "1", "--gamma", "0.7", "--output", "-"]) == 0
        capsys.readouterr()
        for block_id in (Block.QVC, Block.QVD, Block.CLASSICAL_PD):
            block = extract_block("pd", PDPayoffs(3, 5, 0, 1), block_id, 0.7).row_payoffs
            assert block.flags.writeable
        assert [kwargs["gamma"] for _, kwargs, _ in circuit_runs] == [0.7]

    def test_signed_zeros_of_gamma_and_of_a_weight_keep_separate_entries(self, circuit_runs):
        # (sucker payoff, gamma): chicken's weights hold no signed zero (0.0, -r, r, -s with
        # s >= r > 0), so the weight is the prisoner's dilemma's s
        calls = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
        first = [quantized_game("pd", PDPayoffs(3, 5, s, 1), g).row for s, g in calls]
        again = [quantized_game("pd", PDPayoffs(3, 5, s, 1), g).row for s, g in calls]
        signs = [(math.copysign(1.0, args[0][1]), math.copysign(1.0, kwargs["gamma"]))
                 for args, kwargs, _ in circuit_runs]
        assert signs == [(math.copysign(1.0, s), math.copysign(1.0, g)) for s, g in calls]
        for (s, g), got, hit in zip(calls, first, again):
            want = uncached_extended_matrix((3.0, s, 5.0, 1.0), _STRATEGIES, g)
            assert np.array_equal(bits(got), bits(want)) and np.array_equal(bits(hit), bits(want))

    def test_a_hit_result_is_fresh_and_writable(self, circuit_runs):
        payoffs = PDPayoffs(3, 5, 0, 1)
        quantized_game("pd", payoffs, 0.4)
        hit = quantized_game("pd", payoffs, 0.4).row
        want = hit.copy()
        hit[...] = 99.0
        assert np.array_equal(bits(quantized_game("pd", payoffs, 0.4).row), bits(want))
        assert len(circuit_runs) == 1 and not np.shares_memory(hit, circuit_runs[0][2])
        assert not circuit_runs[0][2].flags.writeable  # the kept table

    def test_a_one_gamma_grid_is_weighed_on_every_call(self, circuit_runs):
        for _ in range(2):
            block = extract_block("pd", PDPayoffs(3, 5, 0, 1), Block.QVD, [0.7])
            assert block.row_payoffs.shape == (1, 2, 2)
        assert [kwargs["gamma"] for _, kwargs, _ in circuit_runs] == [[0.7], [0.7]]

    def test_a_17th_table_evicts_the_first(self, circuit_runs):
        gammas = np.linspace(0.1, 1.5, 17).tolist()
        for gamma in gammas + gammas[-16:] + gammas[:1]:  # 17 misses, 16 hits, one miss
            extract_block("chicken", ChickenPayoffs(3, 4), Block.QVSWERVE, gamma)
        assert [kwargs["gamma"] for _, kwargs, _ in circuit_runs] == gammas + gammas[:1]
