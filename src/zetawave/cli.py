"""Command-line front end: verify, scan, boundary, converge.

Output is deterministic by construction: fixed evaluation order, no
timestamps, 15-significant-digit formatting with '.' decimal separator,
manual CSV assembly.  Each command's parameters are declared once, in
_COMMANDS, from which the command line is read, flags and config-file
entries are checked alike, the help is written and the echo is made.  The
effective configuration (defaults, overridden by an optional flat
key=value config file, overridden by flags) is echoed as a '#' comment
line at the top of every report; fed back as a config file, that line
reproduces the report.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 numerical non-convergence.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, ZetawaveError
from .spectra import SCAN_MODES, STUDY_VARIANTS, convergence_study, scan_zeros
from .verify import run_checks
from .waveform import (
    LIMIT,
    ORIGINAL,
    TILDE,
    QuantumNumber,
    SqueezeParameter,
    _check_boundary_args,
    _check_boundary_s,
    _check_full_args,
    _check_limit_args,
    psi_boundary,
    psi_boundary_limit,
    psi_full,
)

__all__ = ["main"]

_FORMATS = ("csv", "records")
_HELP_FLAGS = ("-h", "--help")
_BOUNDARY_VARIANTS = (ORIGINAL, TILDE, LIMIT)
# Most rows one boundary command may ask for: the product of its t, lambda,
# y and x list lengths.  Each x = 0 row runs its own level sum or boundary
# quadrature, so the work grows with that product and is refused (exit 2)
# before it starts.
MAX_BOUNDARY_ROWS = 4096

# A runner's report: CSV header (also the records keys), rows of cell
# values, trailing comment lines, and whether a verification failed.
_Report = Tuple[Sequence[str], List[tuple], List[str], bool]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".15g")
    return str(value)


def _echo(value: object) -> str:
    # .15g where that reads back as the value, else every digit repr needs
    if isinstance(value, list):
        return ",".join(_echo(v) for v in value)
    text = _cell(value)
    if isinstance(value, float) and float(text) != value:
        return repr(float(value))
    return text


def _pairs(keys: Sequence[str], values: Sequence[object]) -> str:
    return " ".join(f"{key}={_cell(value)}" for key, value in zip(keys, values))


# ---------------------------------------------------------------------------
# parameter parsers: (raw text, key) -> value, DomainError on bad text
# ---------------------------------------------------------------------------


def _text(raw: str, key: str) -> str:
    return raw


def _number(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise DomainError(f"{key} must be a number, got {raw!r}") from exc


def _integer(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{key} must be an integer, got {raw!r}") from exc


def _numbers(raw: str, key: str) -> List[float]:
    values = [_number(part, key) for part in raw.split(",") if part != ""]
    if not values:
        raise DomainError(f"{key} list is empty")
    return values


class _Param(NamedTuple):
    parse: Callable[[str, str], object]
    default: Optional[str]
    help: str
    choices: Optional[Tuple[str, ...]] = None

    def value(self, raw: str, key: str) -> object:
        if self.choices is not None and raw not in self.choices:
            raise DomainError(f"{key} must be one of {self.choices}")
        return self.parse(raw, key)


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------


def _run_verify(conf: Dict[str, object]) -> _Report:
    results = run_checks(only=conf.get("only"), tol_override=conf.get("tol"))
    csv = conf["format"] == "csv"
    rows = [
        (
            r.name, r.measured, r.tolerance,
            ("pass" if r.passed else "fail") if csv else r.passed,
            '"' + r.detail.replace('"', '""') + '"' if csv else r.detail,
        )
        for r in results
    ]
    header = ("name", "measured", "tolerance", "passed", "detail")
    return header, rows, [], any(not r.passed for r in results)


def _run_scan(conf: Dict[str, object]) -> _Report:
    window = conf.get("t")
    if window is None:
        raise DomainError("scan requires --t lo:hi")
    if ":" not in window:
        raise DomainError(f"scan window must be lo:hi, got {window!r}")
    lo_text, hi_text = window.split(":", 1)
    records = scan_zeros(
        _number(lo_text, "t lower edge"), _number(hi_text, "t upper edge"),
        step=conf["step"], refine_tol=conf["tol"], mode=conf["mode"],
        lam=conf["lambda"], n=conf["n"],
    )
    rows = [
        (r.t, r.residual, r.bracket_lo, r.bracket_hi, r.iterations, r.energy, r.converged)
        for r in records
    ]
    header = ("t", "residual", "bracket_lo", "bracket_hi", "iterations", "energy", "converged")
    return header, rows, [], False


def _boundary_route(
    variant: str, x: float, y: float, s: complex, n: int, lam: float, tol: Optional[float]
) -> Callable[[], complex]:
    # one row's argument checks, in the order its route makes them, and the
    # row's work as a callable: no Gamma, eta, overlap or quadrature before it
    if variant == LIMIT:
        if x != 0.0:
            raise DomainError("the limit variant is defined on the boundary x = 0")
        SqueezeParameter(lam)
        QuantumNumber(n)
        _check_limit_args(s, y)
        return lambda: psi_boundary_limit(s, y)
    if x == 0.0:
        _check_boundary_args(y, n, lam, variant)
        _check_boundary_s(s)
        return lambda: psi_boundary(y, s, n, lam, variant=variant, target_tol=tol).value
    if variant != ORIGINAL:
        raise DomainError("x > 0 samples exist only for the original variant")
    _check_full_args(x, y, s, n, lam)
    return lambda: psi_full(x, y, s, n, lam).value


def _run_boundary(conf: Dict[str, object]) -> _Report:
    ts, xs, ys, lams = conf["t"], conf["x"], conf["y"], conf["lambda"]
    rows_asked = len(ts) * len(xs) * len(ys) * len(lams)
    if rows_asked > MAX_BOUNDARY_ROWS:
        raise DomainError(
            f"boundary grid of {rows_asked} rows exceeds the work limit of "
            f"{MAX_BOUNDARY_ROWS} rows; shorten the t, lambda, y or x lists"
        )
    tol = conf.get("tol")
    # x > 0 and limit rows take no tolerance, but a bad one is refused for every row
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("boundary tolerance must be positive and finite")
    n, variant = conf["n"], conf["variant"]
    # every row's arguments are checked before any row's work
    grid = [
        ((x, y, t, lam), _boundary_route(variant, x, y, complex(0.5, t), n, lam, tol))
        for t in ts for lam in lams for y in ys for x in xs
    ]
    rows = []
    for (x, y, t, lam), route in grid:
        value = route()
        rows.append((x, y, t, lam, n, variant, value.real, value.imag, abs(value)))
    return ("x", "y", "t", "lambda", "n", "variant", "re", "im", "abs"), rows, [], False


def _run_converge(conf: Dict[str, object]) -> _Report:
    study = convergence_study(
        complex(0.5, conf["t"]), conf["n"], conf["lambda"],
        variant=conf["variant"], y=conf["y"],
    )
    rows = [
        (r.lam, r.observable, r.value.real, r.value.imag,
         r.reference.real, r.reference.imag, r.abs_error)
        for r in study.records
    ]
    summary = "# summary " + _pairs(
        ("observable", "slope", "intercept", "fit_residual"),
        (study.observable, study.slope, study.intercept, study.fit_residual),
    )
    header = ("lambda", "observable", "value_re", "value_im",
              "reference_re", "reference_im", "abs_error")
    return header, rows, [summary], False


# ---------------------------------------------------------------------------
# the parameter table, and the command line read from it
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    help: str
    run: Callable[[Dict[str, object]], _Report]
    params: Dict[str, _Param]


# every command also takes the report's destination and format
_COMMON = {
    "out": _Param(_text, None, "write the report to this path instead of stdout"),
    "format": _Param(_text, "csv", "csv (default) or records", _FORMATS),
}

_COMMANDS = {
    "verify": _Command("run the invariant suites", _run_verify, {
        **_COMMON,
        "only": _Param(_text, None, "run only invariants whose name contains this"),
        "tol": _Param(_number, None, "override every default tolerance"),
    }),
    "scan": _Command("scan for critical-line zeros", _run_scan, {
        **_COMMON,
        "t": _Param(_text, None, "scan window lo:hi"),
        "step": _Param(_number, "0.05", "grid step (default 0.05)"),
        "tol": _Param(_number, "1e-10", "refinement tolerance (default 1e-10)"),
        "mode": _Param(_text, "limit", "limit or finite", SCAN_MODES),
        "lambda": _Param(_number, "12", "squeeze parameter for finite mode"),
        "n": _Param(_integer, "0", "level index for finite mode"),
    }),
    "boundary": _Command("evaluate wave-function samples", _run_boundary, {
        **_COMMON,
        "t": _Param(_numbers, "10", "height t, single value or comma list"),
        "x": _Param(_numbers, "0", "x grid, single value or comma list"),
        "y": _Param(_numbers, "0", "y grid, single value or comma list"),
        "lambda": _Param(_numbers, "12", "squeeze, single value or comma list"),
        "n": _Param(_integer, "0", "level index"),
        "variant": _Param(_text, ORIGINAL, "original, tilde or limit", _BOUNDARY_VARIANTS),
        "tol": _Param(_number, None, "tolerance on the eta-normalized scale"),
    }),
    "converge": _Command("squeeze-convergence study", _run_converge, {
        **_COMMON,
        "t": _Param(_number, "10", "height t of the study point"),
        "y": _Param(_number, "0", "transverse coordinate (default 0)"),
        "lambda": _Param(_numbers, "8,10,12", "ascending comma list of squeezes"),
        "n": _Param(_integer, "0", "level index"),
        "variant": _Param(_text, ORIGINAL, "original, tilde or tilde-corrected", STUDY_VARIANTS),
    }),
}


def _read_config_file(path: str) -> Dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    data: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        data[key.strip()] = value.strip()
    return data


def _split_argv(argv: Sequence[str]) -> Tuple[Optional[str], Optional[Dict[str, str]]]:
    """The command and its flags (key -> last value given), from argv.

    A flag is --key value or --key=value.  (None, None) asks for the
    overall help and (command, None) for the command's; a malformed line
    raises DomainError.  Whether each key is the command's is left to
    _configure.
    """
    if argv and argv[0] in _HELP_FLAGS:
        return None, None
    commands = ", ".join(_COMMANDS)
    if not argv:
        raise DomainError(f"no command given; choose one of {commands}")
    command, *rest = argv
    if command not in _COMMANDS:
        raise DomainError(f"unknown command {command!r}; choose one of {commands}")
    flags: Dict[str, str] = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP_FLAGS:
            return command, None
        if not token.startswith("--"):
            raise DomainError(f"unexpected argument {token!r}; flags are --key value")
        key, eq, value = token[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise DomainError(f"flag --{key} needs a value")
        flags[key] = value
    return command, flags


def _columns(entries: Sequence[Tuple[str, str]]) -> List[str]:
    width = max(len(left) for left, _ in entries)
    return [f"  {left:<{width}}  {right}" for left, right in entries]


def _help(command: Optional[str]) -> str:
    """The help text of one command, or of the program for command None."""
    usage = f"usage: zetawave {command or 'COMMAND'} [--KEY VALUE | --KEY=VALUE ...]"
    if command is None:
        lines = [
            usage, "",
            "Critical-line laboratory: verification suites, zero scans, "
            "boundary evaluation, squeeze-convergence studies.", "",
            "commands:", *_columns([(name, cmd.help) for name, cmd in _COMMANDS.items()]), "",
            "'zetawave COMMAND --help' lists its flags.",
        ]
    else:
        flags = [("--config PATH", "flat key=value config file; flags override it")] + [
            (f"--{key} " + ("{" + ",".join(p.choices) + "}" if p.choices else key.upper()), p.help)
            for key, p in _COMMANDS[command].params.items()
        ]
        lines = [
            usage, "", _COMMANDS[command].help, "",
            "flags (exact names; the last of a repeated flag wins):", *_columns(flags),
        ]
    return "\n".join(lines) + "\n"


def _override(
    raw: Dict[str, Optional[str]], pairs: Dict[str, str], command: str, what: str
) -> None:
    """raw updated by pairs, each of whose keys must be one of the command's;
    what, formatted with the key, names a refused one."""
    for key, value in pairs.items():
        if key not in raw:
            raise DomainError(what.format(key=key) + f" is not valid for the {command} command")
        raw[key] = value


def _configure(command: str, flags: Dict[str, str]) -> Dict[str, object]:
    """Each key's value: its flag, else its config-file entry, else its default.

    Config-file keys and flags are checked alike: each must be one of the
    command's keys, and each value is checked by its parameter.  Keys with
    none of the three are left out.
    """
    params = _COMMANDS[command].params
    raw = {key: param.default for key, param in params.items()}
    flags = dict(flags)
    config = flags.pop("config", None)
    if config:
        _override(raw, _read_config_file(config), command, "config key {key!r}")
    _override(raw, flags, command, "flag --{key}")
    return {key: params[key].value(text, key) for key, text in raw.items() if text is not None}


def _render(
    command: str, conf: Dict[str, object],
    header: Sequence[str], rows: List[tuple], trailer: List[str],
) -> str:
    # the destination path does not affect the numbers, and two runs that
    # differ only in it must stay byte-identical
    echo = [f"command={command}"] + [
        f"{key}={_echo(conf[key])}" for key in sorted(conf) if key != "out"
    ]
    lines = ["# config " + " ".join(echo)]
    if conf["format"] == "csv":
        lines.append(",".join(header))
        lines.extend(",".join(_cell(value) for value in row) for row in rows)
    else:
        lines.extend(_pairs(header, row) for row in rows)
    return "\n".join(lines + trailer) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    try:
        command, flags = _split_argv(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_help(command))
            return 0
        conf = _configure(command, flags)
        header, rows, trailer, failed = _COMMANDS[command].run(conf)
        text = _render(command, conf, header, rows, trailer)
        out_path = conf.get("out")
        if out_path:
            try:
                Path(out_path).write_text(text)
            except OSError as exc:
                raise DomainError(f"cannot write report to {out_path}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 1 if failed else 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetawaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
