"""Inputs, requests and output checks of the three benchmark workloads.

A workload turns its seed into a table of inputs before any timing starts
(one row per request), prepares each request's argument lists outside the
timer, runs the request in the timer, and checks the outputs afterwards.

The checks use closed forms kept in this file: the formulas of the test
suite's ``conftest.py``, written out again so the benchmark depends on
nothing outside ``src/qgames``. Every gate is written
``not (abs(got - want) <= tol)`` so that a NaN fails it.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

import numpy as np

import qgames
from qgames import cli

GAMMA_MAX = math.pi / 2
CURVE_STEPS = 200                  # `qgames curve` defaults
CURVE_BETAS = (0.5, 1.0, 2.0, 5.0)
POOL = 50_000                      # inputs built per run; a run stops if it uses them all

ROW_TOL = 1e-12        # curve J/h/m, closed-form m, analytic gamma*
BISECT_TOL = 1e-9      # bisected gamma* against the analytic value
QUANTIZE_TOL = 1e-9    # quantize prints 10 significant digits
MIXED_TOL = 1e-9       # mixed-Nash p and the interior/boundary decision
ENUM_TOL = 1e-10       # enumeration vs transfer matrix
METROPOLIS_SIGMAS = 5.0

# Strategy order of the 3x3 tables: pd (C, D, Q), chicken (swerve, straight, Q).
# Each block names its (row/col strategy) indices into that table.
BLOCKS = {
    "pd": (("QvC", (0, 2)), ("QvD", (2, 1)), ("ClassicalPD", (0, 1))),
    "chicken": (("QvSwerve", (0, 2)), ("QvStraight", (2, 1)), ("ClassicalChicken", (1, 0))),
}
LABELS = {"pd": ("C", "D", "Q"), "chicken": ("swerve", "straight", "Q")}


# ---------------------------------------------------------------- closed forms

def quantized_rows(game, pay, gamma):
    """Row-player payoffs of the quantized 3x3 game; the column player's
    table is the transpose."""
    if game == "pd":
        r, t, s, p = pay
        c2, s2 = math.cos(gamma) ** 2, math.sin(gamma) ** 2
        a1 = r * c2 + p * s2
        return [[r, s, a1], [t, p, t * c2 + s * s2], [a1, t * s2 + s * c2, r]]
    r, s = pay
    a1 = -s * math.sin(gamma) ** 2
    rc = r * math.cos(2 * gamma)
    return [[0.0, -r, a1], [r, -s, rc], [a1, -rc, 0.0]]


def block_of(rows, ij):
    i, j = ij
    return ((rows[i][i], rows[i][j]), (rows[j][i], rows[j][j]))


def ising_of(block):
    (a, b), (c, d) = block
    return ((a - c) + (d - b)) / 4.0, ((a - c) + (b - d)) / 4.0


def magnetization(beta, J, h):
    x = beta * h
    return math.sinh(x) / math.sqrt(math.sinh(x) ** 2 + math.exp(-4.0 * beta * J))


def mixed_p(block, tol=MIXED_TOL):
    (a, b), (c, d) = block
    den = (a - c) + (d - b)
    if den == 0.0:
        return None
    p = (d - b) / den
    return None if p <= tol or p >= 1.0 - tol else p


def pure_nash(rows, tol=MIXED_TOL):
    """Weak pure Nash cells of the symmetric game (col payoffs = rows^T)."""
    n = len(rows)
    out = []
    for i in range(n):
        for j in range(n):
            row_ok = rows[i][j] >= max(rows[k][j] for k in range(n)) - tol
            col_ok = rows[j][i] >= max(rows[k][i] for k in range(n)) - tol
            if row_ok and col_ok:
                out.append((i, j))
    return out


def transition_arg(game, pay):
    """cos(2 gamma*): (r-p)/(t-s) for QvD, s/(2r) for QvStraight."""
    if game == "pd":
        r, t, s, p = pay
        return (r - p) / (t - s)
    r, s = pay
    return s / (2.0 * r)


# ---------------------------------------------------------------- helpers

def _close(problems, what, got, want, tol):
    if not (abs(got - want) <= tol):
        problems.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def run_cli(argv):
    """One in-process `qgames` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _game_of(index):
    return "pd" if index % 2 == 0 else "chicken"


def _payoff_table(rng, n):
    """Columns r, t, s, p of a prisoner's dilemma (t > r > p > s, O(1) gaps,
    as tests/conftest.random_pd) and r, s of chicken (s > r > 0, as
    conftest.random_chicken) drawn side by side; row i uses the game of
    its parity."""
    u = rng.random((n, 4))
    s = -1.0 + 2.0 * u[:, 0]
    p = s + 0.1 + 1.9 * u[:, 1]
    r = p + 0.1 + 1.9 * u[:, 2]
    t = r + 0.1 + 1.9 * u[:, 3]
    cr = 0.1 + 2.9 * u[:, 0]
    cs = cr + 0.05 + 2.95 * u[:, 1]
    odd = np.arange(n) % 2 == 1
    return np.column_stack(
        [np.where(odd, cr, r), np.where(odd, np.nan, t), np.where(odd, cs, s), np.where(odd, np.nan, p)]
    )


def _payoffs(game, row):
    return (row[0], row[1], row[2], row[3]) if game == "pd" else (row[0], row[2])


def _flag(name, value):
    # `--name=value`: argparse takes "-2e-05" after a space for an option
    return f"--{name}={float(value)!r}"


def _payoff_flags(game, pay):
    names = ("r", "t", "s", "p") if game == "pd" else ("r", "s")
    return [_flag(name, value) for name, value in zip(names, pay)]


def _floats(text):
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------- workloads

class Workload:
    shapes = 1  # request shapes, each warmed up once before timing
    rate = 1    # requests per --seconds: about what a 2-vCPU x86-64 host (Python 3.11, NumPy 2.4,
                # no numba) completes per second, checks and host readings included, when slow

    @staticmethod
    def known_defect(req, problems):
        """Whether a failure is a defect recorded in the baseline."""
        return False


class Sweep(Workload):
    """`qgames curve` at its defaults, then `qgames transition`, for one
    game; pd/QvD and chicken/QvStraight alternate."""

    name = "sweep"
    shapes = 2
    rate = 8

    def inputs(self, rng, n):
        return _payoff_table(rng, n)

    def prepare(self, row, index):
        game = _game_of(index)
        pay = tuple(float(v) for v in _payoffs(game, row))
        block = "QvD" if game == "pd" else "QvStraight"
        flags = ["--game", game] + _payoff_flags(game, pay)
        return {
            "game": game,
            "pay": pay,
            "block": block,
            "argvs": (
                ["curve"] + flags + ["--block", block, "--output", "-"],
                ["transition"] + flags + ["--output", "-"],
            ),
        }

    def run(self, req):
        return [run_cli(argv) for argv in req["argvs"]]

    def check(self, req, out):
        problems = []
        (code_c, curve, _), (code_t, trans, _) = out
        if code_c != 0:
            problems.append(f"curve exited {code_c}")
        if code_t != 0:
            problems.append(f"transition exited {code_t}")
        self._check_curve(req, curve, problems)
        self._check_transition(req, trans, problems)
        return problems

    def _check_curve(self, req, text, problems):
        lines = text.splitlines()
        want_rows = CURVE_STEPS * len(CURVE_BETAS)
        if not lines or lines[0] != "gamma,beta,J,h,m" or len(lines) != want_rows + 1:
            problems.append(f"curve: bad header or {len(lines) - 1} rows (want {want_rows})")
            return
        ij = dict(BLOCKS[req["game"]])[req["block"]]
        grid = np.linspace(0.0, GAMMA_MAX, CURVE_STEPS)
        k = 1
        for g in grid:
            J, h = ising_of(block_of(quantized_rows(req["game"], req["pay"], float(g)), ij))
            for beta in CURVE_BETAS:
                gg, bb, Jg, hg, mg = _floats(lines[k])
                _close(problems, f"curve row {k} gamma", gg, float(g), ROW_TOL)
                _close(problems, f"curve row {k} beta", bb, beta, 0.0)
                _close(problems, f"curve row {k} J", Jg, J, ROW_TOL)
                _close(problems, f"curve row {k} h", hg, h, ROW_TOL)
                _close(problems, f"curve row {k} m", mg, magnetization(beta, J, h), ROW_TOL)
                k += 1

    def _check_transition(self, req, text, problems):
        lines = text.splitlines()
        arg = transition_arg(req["game"], req["pay"])
        if arg > 1.0:
            if lines[1:] != ["transition: none"]:
                problems.append(f"transition: want none (arg {arg!r}), got {lines[1:]!r}")
            return
        want = 0.5 * math.acos(arg)
        values = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            values[key] = value.strip()
        try:
            analytic = float(values["analytic gamma*"])
            bisected = float(values["bisection gamma*"])
        except (KeyError, ValueError):
            problems.append(f"transition: want gamma* {want!r}, got {lines[1:]!r}")
            return
        _close(problems, "analytic gamma*", analytic, want, ROW_TOL)
        _close(problems, "bisection gamma*", bisected, want, BISECT_TOL)


_CELL = re.compile(r"\(([^,()]+), ([^,()]+)\)")


class Scan(Workload):
    """`qgames quantize` at one game and gamma, then each of that game's
    three blocks through extract_block -> to_ising -> magnetization ->
    mixed_nash_symmetric_2x2 at one beta, through the package's API."""

    name = "scan"
    shapes = 2
    rate = 200

    def inputs(self, rng, n):
        gamma = GAMMA_MAX * rng.random(n)
        beta = 0.5 + 4.5 * rng.random(n)
        return np.column_stack([_payoff_table(rng, n), gamma, beta])

    def prepare(self, row, index):
        game = _game_of(index)
        pay = tuple(float(v) for v in _payoffs(game, row))
        gamma, beta = float(row[4]), float(row[5])
        argv = ["quantize", "--game", game] + _payoff_flags(game, pay)
        argv += [_flag("gamma", gamma), "--output", "-"]
        return {"game": game, "pay": pay, "gamma": gamma, "beta": beta, "argv": argv}

    def run(self, req):
        quantize = run_cli(req["argv"])
        game = req["game"]
        payoffs = qgames.PDPayoffs(*req["pay"]) if game == "pd" else qgames.ChickenPayoffs(*req["pay"])
        blocks = []
        for block_id, _ in BLOCKS[game]:
            block = qgames.extract_block(game, payoffs, block_id, req["gamma"])
            ip = qgames.to_ising(block, req["beta"])
            m = qgames.magnetization(ip)
            mixed = qgames.mixed_nash_symmetric_2x2(block.as_game())
            blocks.append((ip.J, ip.h, m, None if mixed is None else mixed.p))
        return quantize, blocks

    def check(self, req, out):
        problems = []
        (code, text, _), blocks = out
        game = req["game"]
        rows = quantized_rows(game, req["pay"], req["gamma"])
        if code != 0:
            problems.append(f"quantize exited {code}")
        self._check_quantize(game, rows, text, problems)
        for (block_id, ij), (Jg, hg, mg, pg) in zip(BLOCKS[game], blocks):
            block = block_of(rows, ij)
            J, h = ising_of(block)
            _close(problems, f"{block_id} J", Jg, J, ROW_TOL)
            _close(problems, f"{block_id} h", hg, h, ROW_TOL)
            _close(problems, f"{block_id} m", mg, magnetization(req["beta"], J, h), ROW_TOL)
            want_p = mixed_p(block)
            if (pg is None) != (want_p is None):
                problems.append(f"{block_id} mixed Nash: got {pg!r}, want {want_p!r}")
            elif pg is not None:
                _close(problems, f"{block_id} mixed p", pg, want_p, MIXED_TOL)
        return problems

    def _check_quantize(self, game, rows, text, problems):
        lines = text.splitlines()
        labels = LABELS[game]
        if len(lines) != 6:
            problems.append(f"quantize: {len(lines)} lines, want 6")
            return
        for i, line in enumerate(lines[2:5]):
            cells = _CELL.findall(line)
            if not line.startswith(labels[i]) or len(cells) != 3:
                problems.append(f"quantize: bad row {line!r}")
                continue
            for j, (rg, cg) in enumerate(cells):
                _close(problems, f"quantize row[{i},{j}]", float(rg), rows[i][j], QUANTIZE_TOL)
                _close(problems, f"quantize col[{i},{j}]", float(cg), rows[j][i], QUANTIZE_TOL)
        cells = pure_nash(rows)
        named = ", ".join(f"({labels[i]}, {labels[j]})" for i, j in cells) if cells else "none"
        if lines[5] != f"pure Nash equilibria: {named}":
            problems.append(f"quantize: {lines[5]!r}, want pure Nash {named!r}")


class Chain(Workload):
    """Three `qgames oracle` calls: enumeration + transfer matrix at N=16 and
    the transfer matrix at N=512 for one draw from acceptance criterion 7's
    box, then the transfer matrix + Metropolis at N=128 (400 sweeps, 40
    burn-in, seed = request index) for a second, moderate-coupling draw."""

    name = "chain"
    rate = 8
    METROPOLIS_N = 128
    SWEEPS = 400
    BURN_IN = 40

    def inputs(self, rng, n):
        u = rng.random((n, 6))
        return np.column_stack([
            -2.0 + 4.0 * u[:, 0], -2.0 + 4.0 * u[:, 1], 5.0 * u[:, 2],   # J, h, beta of calls 1-2
            -0.5 + 1.0 * u[:, 3], -2.0 + 4.0 * u[:, 4], 0.5 + 1.5 * u[:, 5],  # of call 3
        ])

    def prepare(self, row, index):
        first = tuple(float(v) for v in row[:3])
        second = tuple(float(v) for v in row[3:])

        def point(J, h, beta):
            return ["oracle", _flag("J", J), _flag("h", h), _flag("beta", beta)]

        return {
            "first": first,
            "second": second,
            "argvs": (
                point(*first) + ["--N", "16", "--no-metropolis", "--output", "-"],
                point(*first) + ["--N", "512", "--no-enumeration", "--no-metropolis", "--output", "-"],
                point(*second) + [
                    "--N", str(self.METROPOLIS_N), "--sweeps", str(self.SWEEPS),
                    "--burn-in", str(self.BURN_IN), "--seed", str(index),
                    "--no-enumeration", "--output", "-",
                ],
            ),
        }

    def run(self, req):
        return [run_cli(argv) for argv in req["argvs"]]

    def check(self, req, out):
        problems = []
        tables = []
        for call, (code, text, _) in enumerate(out, 1):
            if code != 0:
                problems.append(f"oracle call {call} exited {code}")
            lines = text.splitlines()
            if not lines or lines[0] != "N,method,m,std_error":
                problems.append(f"oracle call {call}: bad header")
                tables.append({})
                continue
            table = {}
            for line in lines[1:]:
                _, method, m, se = line.split(",")
                table[method] = (float(m), float(se) if se else None)
            tables.append(table)
        wanted = (
            ("enumeration", "transfer_matrix", "closed_form"),
            ("transfer_matrix", "closed_form"),
            ("transfer_matrix", "metropolis", "closed_form"),
        )
        for call, (table, methods, point) in enumerate(
            zip(tables, wanted, (req["first"], req["first"], req["second"])), 1
        ):
            if tuple(table) != methods:
                problems.append(f"oracle call {call}: rows {tuple(table)}, want {methods}")
                continue
            J, h, beta = point
            _close(problems, f"oracle call {call} closed_form", table["closed_form"][0],
                   magnetization(beta, J, h), ROW_TOL)
            tm = table["transfer_matrix"][0]
            # a saturated chain reads up to ~1e-13 past +-1 from the numeric derivative
            if not (abs(tm) <= 1.0 + ROW_TOL):
                problems.append(f"oracle call {call}: transfer matrix {tm!r} outside [-1, 1]")
            if call == 1:
                _close(problems, "enumeration vs transfer matrix", table["enumeration"][0], tm, ENUM_TOL)
            if call == 3:
                mean, se = table["metropolis"]
                if se is None:
                    problems.append("oracle call 3: metropolis row has no standard error")
                    continue
                # A chain that never flipped a spin while measuring reports
                # se == 0; it cannot resolve less than one flipped spin, 2/N.
                tol = METROPOLIS_SIGMAS * se if se != 0.0 else 2.0 / self.METROPOLIS_N
                _close(problems, "metropolis vs transfer matrix", mean, tm, tol)
        return problems

    @staticmethod
    def known_defect(req, problems):
        """The int8 overflow in the numba-less Metropolis loop: the per-sweep
        spin sum wraps when the N=128 chain is all up, which only a positive
        field makes likely. It shows as call 3 failing the 5-sigma gate,
        with or without the program's own exit code 3."""
        allowed = ("oracle call 3 exited 3", "metropolis vs transfer matrix")
        return req["second"][1] > 0 and all(p.startswith(allowed) for p in problems)


WORKLOADS = {w.name: w for w in (Sweep(), Scan(), Chain())}
