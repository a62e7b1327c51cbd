"""Command-line front end emitting the simulator's data products.

Commands: fig2 (qubit-source sweep), fig3 (invariant region + per-angle
maxima), fig4 (initial/ceiling/max curves + staircase), iterate (iterated
transfer), maximize (single-angle search), verify (self-check report).
``COMMANDS`` is the one table of the settings each command reads: its flag,
else the same-named key of the ``--config`` JSON file, else the default.
Every command also takes --out, --seed and --config.  The --out suffix
selects CSV or JSON (maximize and verify write JSON only).  Identical
configuration and seed produce byte-identical files.  fig2 evolves one
state per time point into one stack, then checks and scores the whole
stack at once: one X-pattern check, one ``negativities`` call and one clamp
per run.  The stack is gone before the table is written.

Exit codes: 0 success, 2 configuration error (unknown flag or config key;
malformed, non-finite or out-of-range value; wrong --out suffix), 3
mandatory verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .entanglement import _check_x_form, clamp_negativity, negativities
from .protocol import MODE_PURE_RESET, canonical_mode, iterate_transfer, snapshot_purity
from .qutritmax import (
    FIG3_THETA_GRID,
    SearchBudget,
    emax_is_nondecreasing,
    maximize_E12_half_period,
    negativity_at_half_period,
    sample_physical_region,
)
from .transfer import (
    STATE_A,
    STATE_B,
    QubitPairState,
    QutritPairState,
    evolve_reduced,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3


class ConfigError(Exception):
    pass


_PI_PATTERN = re.compile(
    r"^\s*(?P<sign>-)?\s*(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


#: Largest accepted magnitude of an angle or time.  Beyond about 1e6 the
#: spacing of doubles exceeds the 1e-10 algebraic tolerance, so a phase is no
#: longer resolved, and a time grid spanning +-1e308 overflows.
ANGLE_LIMIT = 1e6

#: Largest accepted work sizes, far above the defaults.  Each bounds the time
#: and memory of one run; a budget's coarse grid holds coarse^2 points and
#: each refinement scores one more such grid.
T_POINTS_LIMIT = 100_000
THETA_POINTS_LIMIT = 10_000
SAMPLES_LIMIT = 100_000
COARSE_LIMIT = 1_000
REFINEMENTS_LIMIT = 100
STEPS_LIMIT = 10_000


def parse_angle(text: Any) -> float:
    """Angle or time in radians, finite and at most ANGLE_LIMIT in magnitude;
    accepts plain floats and 'pi', 'pi/4', '3pi/32'.  A bool (a JSON
    ``true``) is refused, not read as 1 rad."""
    if isinstance(text, bool):
        raise ConfigError(f"cannot parse angle {text!r}")
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        match = _PI_PATTERN.match(str(text))
        if not match:
            raise ConfigError(f"cannot parse angle {text!r}") from None
        value = float(match.group("coef") or 1.0) * np.pi
        den = float(match.group("den") or 1.0)
        if den == 0.0:
            raise ConfigError(f"zero denominator in angle {text!r}") from None
        value = -value / den if match.group("sign") else value / den
    if not abs(value) <= ANGLE_LIMIT:
        raise ConfigError(f"angle {text!r} is not finite or exceeds {ANGLE_LIMIT:g} in magnitude")
    return value


def parse_source_state(text: Any) -> QutritPairState:
    """Named state A/B/C or a triple of non-negative real amplitudes (normalized)."""
    if isinstance(text, str) and text.strip().upper() in ("A", "B", "C"):
        return QutritPairState.from_label(text.strip())
    parts = text.split(",") if isinstance(text, str) else text
    if not isinstance(parts, (list, tuple)) or len(parts) != 3:
        raise ConfigError(f"source state must be A, B, C or 'k0,k1,k2', got {text!r}")
    try:
        return QutritPairState.normalized(*[float(p) for p in parts])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad source amplitudes {text!r}: {exc}") from exc


def parse_budget(text: Any) -> SearchBudget:
    """Search budget as 'coarse[:refinements[:shrink]]' or a bare integer,
    with coarse at most COARSE_LIMIT and refinements at most
    REFINEMENTS_LIMIT."""
    parts = str(text).split(":")
    try:
        if len(parts) > 3:
            raise ValueError("too many fields")
        coarse = int(parts[0])
        if coarse > COARSE_LIMIT:
            raise ConfigError(f"budget {text!r}: coarse must be at most {COARSE_LIMIT}")
        refinements = int(parts[1]) if len(parts) > 1 else SearchBudget.refinements
        if refinements > REFINEMENTS_LIMIT:
            raise ConfigError(f"budget {text!r}: refinements must be at most {REFINEMENTS_LIMIT}")
        shrink = float(parts[2]) if len(parts) > 2 else SearchBudget.shrink
        return SearchBudget(coarse, refinements, shrink)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"budget {text!r}, want coarse[:refinements[:shrink]]: {exc}") from exc


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """CSV with each float (``np.float64`` too) to 12 significant digits,
    -0.0 as ``-0``, and any other value, an int or a string, as ``str``."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def write_json(path: Path, payload: Any) -> None:
    """The document streamed to ``path`` piece by piece, never whole in
    memory: the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline."""
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """CSV, or JSON when ``path`` ends in .json."""
    if path.suffix == ".json":
        write_json(path, {"header": list(header), "rows": [list(r) for r in rows]})
    else:
        write_csv(path, header, rows)


def sibling_path(out: Path, suffix_word: str) -> Path:
    return out.with_name(f"{out.stem}_{suffix_word}{out.suffix}")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return payload


def cmd_fig2(cfg: argparse.Namespace) -> int:
    """Qubit-source negativity sweep over time."""
    write_table(cfg.out, ["t", "E12", "A", "B", "C", "D", "ReF", "ImF"], _fig2_rows(cfg))
    return EXIT_OK


def _fig2_rows(cfg: argparse.Namespace) -> list[list[float]]:
    """The rows of the fig2 table, from one stack of evolved states filled
    in place; the stack is gone before the table is written."""
    tp = QubitPairState(cfg.theta1)
    sp = QubitPairState(cfg.theta2)
    times = np.linspace(cfg.t_start, cfg.t_stop, cfg.t_points)
    states = np.empty((len(times), 4, 4), dtype=complex)
    for i, t in enumerate(times):
        states[i] = evolve_reduced(tp, sp, t).matrix
    _check_x_form(states)  # every row is an X state: its coefficients are the table
    e12 = clamp_negativity(negativities(states))
    f = states[:, 0, 3]
    table = np.column_stack([times, e12, states.diagonal(axis1=1, axis2=2).real, f.real, f.imag])
    return table.tolist()


def cmd_fig3(cfg: argparse.Namespace) -> int:
    """Invariant-region samples and per-angle maxima."""
    region_rows = []
    for state, point in sample_physical_region(cfg.samples, cfg.seed):
        region_rows.append([state.k0, state.k1, state.k2, point.i1, point.i2, point.i1p, point.i2p])
    write_table(cfg.out, ["k0", "k1", "k2", "I1", "I2", "I1p", "I2p"], region_rows)
    maxima_rows = []
    for theta1 in FIG3_THETA_GRID:
        result = maximize_E12_half_period(theta1, cfg.budget)
        k = result.argmax_state
        inv = result.argmax_invariants
        maxima_rows.append(
            [theta1, result.e_max, k.k0, k.k1, k.k2, inv.i1, inv.i2, inv.i1p, inv.i2p]
        )
    maxima_path = sibling_path(cfg.out, "maxima")
    write_table(
        maxima_path,
        ["theta1", "E_max", "k0", "k1", "k2", "I1", "I2", "I1p", "I2p"],
        maxima_rows,
    )
    return EXIT_OK


def cmd_fig4(cfg: argparse.Namespace) -> int:
    """Initial/ceiling/maximum curves plus the staircase file."""
    thetas = np.linspace(0.0, np.pi / 4, cfg.theta_points)
    rows = []
    results = []
    amp_a = STATE_A.amplitudes()
    amp_b = STATE_B.amplitudes()
    for theta1 in thetas:
        result = maximize_E12_half_period(float(theta1), cfg.budget)
        results.append(result)
        rows.append(
            [
                float(theta1),
                QubitPairState(theta1).initial_negativity(),
                float(negativity_at_half_period(theta1, amp_a)),
                float(negativity_at_half_period(theta1, amp_b)),
                result.e_max,
            ]
        )
    write_table(cfg.out, ["theta1", "E_initial", "E_A", "E_B", "E_max"], rows)
    print(f"E_max monotone non-decreasing along grid: {emax_is_nondecreasing(results)}")
    fold_rows = _iteration_rows(iterate_transfer(cfg.e0, cfg.sp, cfg.steps, cfg.mode))
    fold_path = sibling_path(cfg.out, "foldline")
    write_table(fold_path, _ITERATION_HEADER, fold_rows)
    return EXIT_OK


_ITERATION_HEADER = ["step", "mode", "E_before", "E_after", "tp_theta", "tp_purity"]


def _iteration_rows(records) -> list[list[Any]]:
    rows = []
    for rec in records:
        theta = rec.tp_state_snapshot if isinstance(rec.tp_state_snapshot, float) else ""
        rows.append(
            [
                rec.step,
                rec.mode,
                rec.negativity_before,
                rec.negativity_after,
                theta,
                snapshot_purity(rec),
            ]
        )
    return rows


def cmd_iterate(cfg: argparse.Namespace) -> int:
    """Iterated half-period transfer."""
    records = iterate_transfer(cfg.e0, cfg.sp, cfg.steps, cfg.mode)
    write_table(cfg.out, _ITERATION_HEADER, _iteration_rows(records))
    return EXIT_OK


def cmd_maximize(cfg: argparse.Namespace) -> int:
    """Single-angle maximization over qutrit source states."""
    result = maximize_E12_half_period(cfg.theta1, cfg.budget)
    k = result.argmax_state
    inv = result.argmax_invariants
    payload = {
        "theta1": result.theta1,
        "e_max": result.e_max,
        "argmax_k": [k.k0, k.k1, k.k2],
        "invariants": {"I1": inv.i1, "I2": inv.i2, "I1p": inv.i1p, "I2p": inv.i2p},
        "evaluations": result.evaluations,
        "refinement_depth": result.refinement_depth,
        "budget": asdict(cfg.budget),
    }
    write_json(cfg.out, payload)
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Run the self-check suite and write a JSON report."""
    report = run_checks(cfg.seed)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        if check["passed"] is None:
            status = "info"
        print(
            f"{status:>4}  {check['name']}: max deviation {check['max_deviation']:.3e}"
            f" (tol {check['tolerance']:.1e})"
        )
    write_json(cfg.out, report)
    return EXIT_OK if report["mandatory_passed"] else EXIT_VERIFY


def _count(minimum: int, limit: float = np.inf) -> Callable[[Any], int]:
    """Parser of an integer setting in [``minimum``, ``limit``]."""

    def parse(value: Any) -> int:
        number = int(str(value))
        if number < minimum:
            raise ConfigError(f"must be at least {minimum}, got {number}")
        if number > limit:
            raise ConfigError(f"must be at most {limit}, got {number}")
        return number

    return parse


def _parse_fraction(value: Any) -> float:
    number = float(str(value))
    if not 0.0 <= number <= 1.0:
        raise ConfigError(f"must lie in [0, 1], got {value!r}")
    return number


class Setting(NamedTuple):
    """A value a command reads: flag ``--name`` with dashes for underscores,
    else config key ``name``, else ``default``.  ``parse`` rejects values that
    are malformed, not finite or out of range."""

    name: str
    parse: Callable[[Any], Any]
    default: Any
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


class Command(NamedTuple):
    """Handler (its docstring is the command's help), default output path,
    accepted ``--out`` suffixes and the settings read besides --out and --seed."""

    run: Callable[[argparse.Namespace], int]
    out: str
    suffixes: tuple[str, ...]
    settings: tuple[Setting, ...] = ()

    def schema(self) -> tuple[Setting, ...]:
        out = Setting("out", Path, Path(self.out), f"output path ({', '.join(self.suffixes)})")
        return (out, _SEED) + self.settings


_SEED = Setting("seed", _count(0), 0, "seed for sampled checks and region fills")
_THETA1 = Setting("theta1", parse_angle, 0.0, "target Schmidt angle (radians or 'pi/4')")
_THETA2 = Setting("theta2", parse_angle, np.pi / 4, "qubit-source Schmidt angle")
_T_START = Setting("t_start", parse_angle, 0.0, "sweep start time")
_T_STOP = Setting("t_stop", parse_angle, 2.0 * np.pi, "sweep stop time")
_T_POINTS = Setting(
    "t_points", _count(2, T_POINTS_LIMIT), 601, f"sweep grid size, 2 to {T_POINTS_LIMIT}"
)
_THETA_POINTS = Setting(
    "theta_points",
    _count(2, THETA_POINTS_LIMIT),
    65,
    f"target-angle grid size, 2 to {THETA_POINTS_LIMIT}",
)
_SAMPLES = Setting(
    "samples", _count(100, SAMPLES_LIMIT), 2000, f"region sample count, 100 to {SAMPLES_LIMIT}"
)
_BUDGET = Setting(
    "budget",
    parse_budget,
    SearchBudget(),
    f"search coarse[:refinements[:shrink]], coarse 2 to {COARSE_LIMIT},"
    f" refinements 0 to {REFINEMENTS_LIMIT}",
)
_E0 = Setting("e0", _parse_fraction, 0.2, "initial target negativity, in [0, 1]")
_SP = Setting(
    "sp", parse_source_state, STATE_A, "qutrit source: A, B, C or non-negative 'k0,k1,k2'"
)
_STEPS = Setting("steps", _count(1, STEPS_LIMIT), 4, f"iteration count, 1 to {STEPS_LIMIT}")
_MODE = Setting("mode", canonical_mode, MODE_PURE_RESET, "pure-reset or mixed")
_STAIRCASE = (_E0, _SP, _STEPS, _MODE)
_TABLE, _JSON = (".csv", ".json"), (".json",)

COMMANDS: dict[str, Command] = {
    "fig2": Command(cmd_fig2, "fig2.csv", _TABLE, (_THETA1, _THETA2, _T_START, _T_STOP, _T_POINTS)),
    "fig3": Command(cmd_fig3, "fig3.csv", _TABLE, (_SAMPLES, _BUDGET)),
    "fig4": Command(cmd_fig4, "fig4.csv", _TABLE, (_THETA_POINTS, _BUDGET) + _STAIRCASE),
    "iterate": Command(cmd_iterate, "iterate.csv", _TABLE, _STAIRCASE),
    "maximize": Command(cmd_maximize, "maximize.json", _JSON, (_THETA1, _BUDGET)),
    "verify": Command(cmd_verify, "verify_report.json", _JSON),
}
_FLAGS = frozenset({s.flag for c in COMMANDS.values() for s in c.schema()} | {"--config"})


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError where argparse would exit, so that main returns
    EXIT_CONFIG to a caller that invoked it directly."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spin-transfer",
        description="Entanglement transfer between spin pairs: sweeps, maximization, iteration.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__, allow_abbrev=False)
        for setting in command.schema():
            p.add_argument(setting.flag, dest=setting.name, help=setting.help)
        p.add_argument("--config", help="JSON config file; flags override its entries")
    return parser


def _resolve(command: Command, args: argparse.Namespace) -> argparse.Namespace:
    """Set each setting in ``args`` to its parsed flag, else config key, else default."""
    file_cfg = _load_config_file(args.config)
    schema = command.schema()
    unknown = sorted(set(file_cfg) - {s.name for s in schema})
    if unknown:
        expected = ", ".join(s.name for s in schema)
        raise ConfigError(f"unknown config key {unknown[0]!r}; {args.command} reads {expected}")
    for setting in schema:
        flag_value = getattr(args, setting.name)
        raw = file_cfg.get(setting.name) if flag_value is None else flag_value
        try:
            value = setting.default if raw is None else setting.parse(raw)
        except (ConfigError, ValueError, TypeError) as exc:
            field = f"config key {setting.name!r}" if flag_value is None else setting.flag
            raise ConfigError(f"{field}: {exc}") from None
        setattr(args, setting.name, value)
    if args.out.suffix not in command.suffixes:
        expected = " or ".join(command.suffixes)
        raise ConfigError(f"--out: expected a {expected} file, got {str(args.out)!r}")
    return args


def _join_flag_values(argv: Sequence[str]) -> list[str]:
    """Write ``--flag value`` as ``--flag=value`` unless ``value`` is itself a
    flag, so that argparse takes a value such as ``-pi/6`` for a value, not a flag."""
    tokens = list(argv)
    joined = []
    while tokens:
        token = tokens.pop(0)
        if token in _FLAGS and tokens and tokens[0] not in _FLAGS | {"-h", "--help"}:
            token = f"{token}={tokens.pop(0)}"
        joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
        command = COMMANDS[args.command]
        return command.run(_resolve(command, args))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
