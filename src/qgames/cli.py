"""Command-line front end.

Subcommands:

* quantize   print the 3x3 classical-plus-quantum bimatrix and its pure Nash cells
* curve      CSV magnetization sweep over an entanglement grid (gamma-major)
* transition analytic vs bisection location of the magnetization sign change
* oracle     CSV cross-check of enumeration / transfer matrix / Metropolis /
             closed form at one (J, h, beta) point

Exit codes: 0 success, 2 validation error, 3 internal consistency failure.
All numeric CSV fields carry 17 significant digits so they re-parse to the
exact binary values that produced them.

Flags are declared once, in `build_parser`; `--config` reads each one's kind there.
A known subcommand's well-formed argv is read from its parser's option table
(`_read`); anything else takes one top-level argparse pass, so each usage line,
message and exit code is argparse's. On both routes a dash-led token is a value
when float() reads each of its comma items (`_is_value`).
"""

import argparse
import dataclasses
import functools
import math
import os
import sys
import types

import numpy as np

from . import ising, oracle
from .catalog import GAMES, Block, extract_block, quantized_game
from .eisert import _CACHED_GAMMAS, GAMMA_RANGE, check_gamma
from .equilibrium import pure_nash
from .errors import ConsistencyError, ResourceLimitError, ValidationError

DEFAULT_BETAS = (0.5, 1.0, 2.0, 5.0)
DEFAULT_GAMMA_STEPS = 200
MAX_CURVE_ROWS = 1 << 20  # gamma steps x betas: a 440 MB peak (tracemalloc), 420 B a row
_PIPE_BUF = 4096  # the POSIX minimum of PIPE_BUF, in characters of the ASCII output

# disagreement gates for the oracle subcommand (exit code 3 when exceeded)
ENUM_VS_TRANSFER_TOL = 1e-10
METROPOLIS_SIGMAS = 5.0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_betas(text: str):
    try:
        betas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad beta list {text!r}: {exc}") from None
    if not betas:
        raise ValidationError("beta list is empty")
    return betas


def _is_value(token: str) -> bool:
    """Whether `_parse_betas` reads token: float() reads each non-empty comma item."""
    try:
        return bool(_parse_betas(token))
    except ValidationError:
        return False


# Each game's payoff type and its field names, which are its flags.
_PAYOFF_FIELDS = {kind: (row[0], tuple(f.name for f in dataclasses.fields(row[0])))
                  for kind, row in GAMES.items()}


def _payoffs_from(args):
    payoff_type, names = _PAYOFF_FIELDS[args.game]
    flags = ["--" + k for k in names]
    missing = [k for k in names if getattr(args, k) is None]
    if missing:
        raise ValidationError(f"game {args.game} needs {' '.join(flags)} (missing: {missing})")
    for k in ("r", "t", "s", "p"):
        if k not in names and getattr(args, k) is not None:
            raise ValidationError(f"game {args.game} takes {' and '.join(flags)} only (got --{k})")
    return payoff_type(**{k: getattr(args, k) for k in names})


def _gamma_from(args) -> float:
    if args.gamma is not None and args.gamma_degrees is not None:
        raise ValidationError("give either --gamma or --gamma-degrees, not both")
    if args.gamma is not None:
        return args.gamma
    if args.gamma_degrees is not None:
        return math.radians(args.gamma_degrees)
    raise ValidationError("a gamma value is required (--gamma or --gamma-degrees)")


def _emit(path, lines):
    text = "\n".join(lines) + "\n"
    if path == "-":
        # Unbuffered (python -u), one long write to a pipe whose reader leaves is cut short
        # without an error; a pipe takes a write of at most PIPE_BUF bytes whole or raises.
        sys.stdout.writelines(text[i : i + _PIPE_BUF] for i in range(0, len(text), _PIPE_BUF))
        return
    try:
        with open(path, "w", newline="") as out:
            out.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output {path!r}: {exc}") from None


def _add_game_flags(p):
    p.add_argument("--game", required=True, choices=tuple(GAMES))
    p.add_argument("--r", type=float, help="reward (pd) / reputation (chicken)")
    p.add_argument("--t", type=float, help="temptation (pd only)")
    p.add_argument("--s", type=float, help="sucker payoff (pd) / injury cost (chicken)")
    p.add_argument("--p", type=float, help="punishment (pd only)")


def cmd_quantize(args) -> int:
    payoffs = _payoffs_from(args)
    gamma = _gamma_from(args)
    game = quantized_game(args.game, payoffs, gamma)
    equilibria = pure_nash(game)

    lines = [f"quantized payoff matrix  game={args.game}  gamma={_fmt(gamma)} rad"]
    lines.append(" " * 10 + "%-22s" * game.n % game.labels)
    # each cell padded to 21, then one space, so a long cell still ends in a separator
    line = "%-10s" + "%-21s " * game.n
    rows = game.row.tolist()
    for lab, row, col in zip(game.labels, rows, zip(*rows)):
        lines.append(line % (lab, *("(%.10g, %.10g)" % rc for rc in zip(row, col))))
    if equilibria:
        named = ", ".join("(%s, %s)" % game.label_cell(c) for c in equilibria)
    else:
        named = "none"
    lines.append(f"pure Nash equilibria: {named}")
    _emit(args.output, lines)
    return 0


def _curve_lines(gamma_col, pairs, ms, betas) -> list[str]:
    """The CSV lines from the gamma column as `_gamma_axis` formats it; every other column in
    one %-format (`_fmt`'s bytes), freed before `_emit`. J is formatted once per bit pattern (a
    sign block's J does not move with gamma); a key on the value would print -0.0 as 0."""
    Js, hs = zip(*pairs)
    bits, at = np.unique(np.array(Js).view(np.int64), return_inverse=True)
    J_strs, hs, beta_cols, m_cols = (("%.17g\n" * len(c) % tuple(c)).splitlines()
                                     for c in (bits.view(float).tolist(), hs, betas, ms))
    Js, m = [J_strs[i] for i in at.tolist()], iter(m_cols)
    return ["gamma,beta,J,h,m"] + [f"{g},{b},{J},{h},{next(m)}"
                                   for g, J, h in zip(gamma_col, Js, hs) for b in beta_cols]


@functools.lru_cache(maxsize=16)
def _gamma_axis(ends: bytes, steps: int):
    """The read-only grid of `steps` gammas over the float64 `ends` (one step takes the start),
    its `%.17g` column and whether it strictly increases; keyed on bits, so -0.0 is not 0.0."""
    (grid := np.linspace(*np.frombuffer(ends)[[0, -1]], steps)).flags.writeable = False
    column = ("%.17g\n" * steps % tuple(grid.tolist())).splitlines()
    return grid, column, bool(np.all(np.diff(grid) > 0))


def cmd_curve(args) -> int:
    """CSV m over gamma x beta, the gamma axis cached per grid as long as eisert caches a run."""
    payoffs = _payoffs_from(args)
    betas = _parse_betas(args.beta)
    if args.gamma_steps < 1:
        raise ValidationError("--gamma-steps must be >= 1")
    if args.gamma_steps * len(betas) > MAX_CURVE_ROWS:
        raise ResourceLimitError(f"curve takes gamma steps x betas up to {MAX_CURVE_ROWS} rows, "
                                 f"got {args.gamma_steps} x {len(betas)}")
    # the ends the grid takes, named as given: linspace would turn an infinite one into NaNs,
    # and a one-step grid is its start alone, whatever the stop
    ends = check_gamma([args.gamma_start, args.gamma_stop][: args.gamma_steps])
    axis = _gamma_axis if args.gamma_steps <= _CACHED_GAMMAS else _gamma_axis.__wrapped__
    grid, gamma_col, increasing = axis(ends.tobytes(), args.gamma_steps)
    stacked = extract_block(args.game, payoffs, args.block, grid)  # range-checks the grid
    if not increasing:
        raise ValidationError("gamma grid must be strictly increasing")
    _emit(args.output, _curve_lines(gamma_col, *ising.curve_rows(stacked, betas), betas))
    return 0


def cmd_transition(args) -> int:
    payoffs = _payoffs_from(args)
    block_id = Block(args.block or GAMES[args.game][3])
    analytic, numeric = ising.phase_transition_gamma(args.game, payoffs, block_id)

    lines = [f"game={args.game}  block={block_id.value}"]
    if analytic is None:
        lines.append("transition: none")
    else:
        lines.append(f"analytic gamma*:  {_fmt(analytic)}")
        lines.append(f"bisection gamma*: {_fmt(numeric)}")
        lines.append(f"difference:       {_fmt(abs(analytic - numeric))}")
    _emit(args.output, lines)
    return 0


def cmd_oracle(args) -> int:
    ip = ising.IsingParams(J=args.J, h=args.h, beta=args.beta)
    spec = oracle.ChainSpec(N=args.N, params=ip)

    rows = []
    enum_m = None
    if not args.no_enumeration:
        enum_m = oracle.enumerate_magnetization(spec)
        rows.append((str(spec.N), "enumeration", _fmt(enum_m), ""))
    transfer_m = oracle.transfer_matrix_finite(spec)
    rows.append((str(spec.N), "transfer_matrix", _fmt(transfer_m), ""))
    sampled = None
    if not args.no_metropolis:
        sampled = oracle.metropolis_magnetization(
            spec, sweeps=args.sweeps, burn_in=args.burn_in, seed=args.seed
        )
        rows.append((str(spec.N), "metropolis", _fmt(sampled.mean), _fmt(sampled.std_error)))
    closed_m = ising.magnetization(ip)
    rows.append(("inf", "closed_form", _fmt(closed_m), ""))

    _emit(args.output, ["N,method,m,std_error"] + [",".join(r) for r in rows])

    if enum_m is not None and not abs(enum_m - transfer_m) <= ENUM_VS_TRANSFER_TOL:
        raise ConsistencyError(
            f"enumeration {enum_m!r} vs transfer matrix {transfer_m!r} differ beyond "
            f"{ENUM_VS_TRANSFER_TOL}"
        )
    if sampled is not None:
        # a frozen chain has no spread to measure; allow one flipped spin
        se = sampled.std_error
        tol = METROPOLIS_SIGMAS * se if se > 0 else 2.0 / spec.N
        if not (abs(sampled.mean - transfer_m) <= tol):
            raise ConsistencyError(
                f"metropolis {sampled.mean!r} (standard error {se!r}) is more than {tol!r} "
                f"from the transfer matrix {transfer_m!r}"
            )
    if not math.isfinite(transfer_m):  # the only gate when both other oracles are off
        raise ConsistencyError(f"transfer matrix {transfer_m!r} is not finite")
    if not math.isfinite(closed_m):
        raise ConsistencyError(f"closed form {closed_m!r} is not finite")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse reads a dash-led token as an option unless its negative-number
    matcher, which it only ever calls as `.match(token)`, accepts it; here that
    is `_is_value`, so `--s -2e-05`, `--J -inf`, `--s -1_0` and `--beta -0.0,1`
    reach validation.  Subcommand parsers are built from the same class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = types.SimpleNamespace(match=_is_value)

    def _get_values(self, action, arg_strings):
        # Python 3.11 drops `--` as an explicit value (--r=--) and would store [];
        # a one-value flag then has no value
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `qgames` parser of this process, built on the first call.

    Every later call returns the same object. Its `subcommands` maps each
    subcommand name to that subcommand's own parser (the `choices` of the
    subparsers action), whose option table `main` reads a well-formed argv
    from; any other argv takes this parser's own `parse_args`. Each parse
    fills a fresh Namespace and no parser holds a mutable default, so
    reusing them carries nothing from one `main` call to the next. Callers
    must not mutate them.
    """
    parser = _Parser(
        prog="qgames",
        description="Quantized 2x2 games mapped onto the 1-D Ising chain.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    p = sub.add_parser("quantize", help="3x3 bimatrix with the quantum strategy, plus Nash cells")
    _add_game_flags(p)
    p.add_argument("--gamma", type=float, help="entanglement angle in radians")
    p.add_argument("--gamma-degrees", type=float, help="entanglement angle in degrees")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("curve", help="CSV magnetization sweep over gamma")
    _add_game_flags(p)
    p.add_argument("--block", required=True, choices=[b.value for b in Block])
    p.add_argument("--beta", default=",".join(str(b) for b in DEFAULT_BETAS),
                   help="comma-separated inverse temperatures")
    p.add_argument("--gamma-start", type=float, default=GAMMA_RANGE[0])
    p.add_argument("--gamma-stop", type=float, default=GAMMA_RANGE[1])
    p.add_argument("--gamma-steps", type=int, default=DEFAULT_GAMMA_STEPS)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("transition", help="locate the magnetization sign change")
    _add_game_flags(p)
    defaults = ", ".join(f"{row[3].value} for {kind}" for kind, row in GAMES.items())
    p.add_argument("--block", choices=[b.value for b in Block], help=f"defaults to {defaults}")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("oracle", help="cross-check the chain oracles at one point")
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sweeps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-enumeration", action="store_true")
    p.add_argument("--no-metropolis", action="store_true")
    p.set_defaults(func=cmd_oracle)

    for p in sub.choices.values():
        p.add_argument("--output", default="-")
    return parser


def _merge_config(argv):
    """Expand --config FILE (or --config=FILE) into key=value flags placed
    before the explicit ones, so explicit command-line flags win on conflict.
    A switch (a store-const flag) takes key=true (given) or key=false (not)."""
    argv = list(argv)
    if "--config" not in " ".join(argv):  # one scan when no token can start with it
        return argv
    at = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
    argv[at : at + 1] = argv[at].split("=", 1)  # --config=FILE reads as --config FILE
    if at + 1 >= len(argv):
        raise ValidationError("--config needs a file path")
    if at == 0:
        raise ValidationError("--config must follow the subcommand")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    table = getattr(build_parser().subcommands.get(rest[0]), "_option_string_actions", {})
    tokens = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                if not (eq and key):  # an empty key would become `--`, ending the options
                    raise ValidationError(f"{path}:{ln}: expected key=value, got {line!r}")
                flag = "--" + key.replace("_", "-")
                if not isinstance(table.get(flag), argparse._StoreConstAction):
                    tokens += [flag, value]
                elif value == "true":
                    tokens.append(flag)
                elif value != "false":
                    raise ValidationError(f"{path}:{ln}: {key} is a switch, "
                                          f"give true or false, got {value!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    return rest[:1] + tokens + rest[1:]


def _read(parser, args):
    """The Namespace `parser.parse_args(args)` returns, read straight from the
    parser's option table, or None where argparse must decide.

    Only exact `--flag value`, `--flag=value` and store-const switches are
    read, each value converted by the flag's `type` and checked against its
    `choices`; unseen flags take their defaults and `func` comes from the
    parser's defaults. Help, an abbreviation, a dash-led value `_is_value`
    refuses, a missing or `--` value, an unknown token, an absent required
    flag and a type or choice failure all give None.
    """
    table = parser._option_string_actions
    given = {}
    i = 0
    try:
        while i < len(args):
            action = table.get(args[i])
            if isinstance(action, argparse._StoreConstAction):
                given[action.dest] = action.const
                i += 1
                continue
            if action is not None:
                if i + 1 == len(args):
                    return None
                text = args[i + 1]
                if text.startswith("-") and text != "-" and not _is_value(text):
                    return None
                i += 2
            else:
                flag, eq, text = args[i].partition("=")
                action = table.get(flag) if eq else None
                i += 1
            if text == "--" or not isinstance(action, argparse._StoreAction):
                return None
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
            given[action.dest] = value
    except ValueError:
        return None
    for action in parser._actions:
        if action.dest not in given:
            if action.required:
                return None
            if action.default is not argparse.SUPPRESS:
                given[action.dest] = action.default
    for dest, value in parser._defaults.items():
        given.setdefault(dest, value)
    return argparse.Namespace(**given)


def _parse(argv):
    """The namespace of argv: read from a known subcommand's option table
    when it is well formed, or else from one top-level argparse pass.

    Help, abbreviations, an unknown subcommand and every malformed argv
    take `build_parser().parse_args`, so each usage line, message and exit
    code is argparse's; only that namespace carries `subcommand`.
    """
    parser = build_parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    args = None if subparser is None else _read(subparser, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(_merge_config(argv))
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


def entry():  # console-script hook
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # the reader left; devnull keeps the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
