"""Command-line front end: verify, scan, boundary, converge.

Output is deterministic by construction: fixed evaluation order, no
timestamps, 15-significant-digit formatting with '.' decimal separator,
manual CSV assembly.  The effective configuration (defaults, overridden
by an optional flat key=value config file, overridden by flags) is echoed
as a '#' comment line at the top of every report; fed back as a config
file, that line reproduces the report.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, ZetawaveError
from .spectra import SCAN_MODES, STUDY_VARIANTS, convergence_study, scan_zeros
from .verify import run_checks
from .waveform import (
    LIMIT,
    ORIGINAL,
    TILDE,
    psi_boundary,
    psi_boundary_limit,
    psi_full,
)

__all__ = ["main", "RunConfig"]

_FORMATS = ("csv", "records")
_BOUNDARY_VARIANTS = (ORIGINAL, TILDE, LIMIT)
# Most rows one boundary command may ask for: the product of its t, lambda,
# y and x list lengths.  Each x = 0 row runs its own boundary quadrature, so
# the work grows with that product and is refused (exit 2) before it starts.
MAX_BOUNDARY_ROWS = 4096

_DEFAULTS: Dict[str, Dict[str, Optional[str]]] = {
    "verify": {
        "only": None, "tol": None, "format": "csv", "out": None,
    },
    "scan": {
        "t": None, "step": "0.05", "tol": "1e-10", "mode": "limit",
        "lambda": "12", "n": "0", "format": "csv", "out": None,
    },
    "boundary": {
        "t": "10", "x": "0", "y": "0", "lambda": "12", "n": "0",
        "variant": "original", "tol": None, "format": "csv", "out": None,
    },
    "converge": {
        "t": "10", "y": "0", "lambda": "8,10,12", "n": "0",
        "variant": "original", "format": "csv", "out": None,
    },
}


class RunConfig:
    """Validated command plus parameter map for one CLI invocation."""

    def __init__(self, command: str, params: Dict[str, object]):
        self.command = command
        self.params = params

    def echo_line(self) -> str:
        parts = [f"command={self.command}"]
        for key in sorted(self.params):
            value = self.params[key]
            # the destination path does not affect the numbers, and two
            # runs that differ only in it must stay byte-identical
            if value is None or key == "out":
                continue
            if isinstance(value, float):
                parts.append(f"{key}={_echo(value)}")
            elif isinstance(value, (list, tuple)):
                parts.append(f"{key}={','.join(_echo(v) for v in value)}")
            else:
                parts.append(f"{key}={value}")
        return "# config " + " ".join(parts)


def _fmt(v: float) -> str:
    return format(float(v), ".15g")


def _echo(v: float) -> str:
    # .15g where that reads back as v, else every digit repr needs
    text = _fmt(v)
    return text if float(text) == v else repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetawave",
        description="Critical-line laboratory: verification suites, zero scans, "
        "boundary evaluation, squeeze-convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=_FORMATS, help="csv (default) or records")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    common(p_verify)
    p_verify.add_argument("--only", help="run only invariants whose name contains this")
    p_verify.add_argument("--tol", help="override every default tolerance")

    p_scan = sub.add_parser("scan", help="scan for critical-line zeros")
    common(p_scan)
    p_scan.add_argument("--t", help="scan window lo:hi")
    p_scan.add_argument("--step", help="grid step (default 0.05)")
    p_scan.add_argument("--tol", help="refinement tolerance (default 1e-10)")
    p_scan.add_argument("--mode", choices=SCAN_MODES, help="limit or finite")
    p_scan.add_argument("--lambda", dest="lam", help="squeeze parameter for finite mode")
    p_scan.add_argument("--n", help="level index for finite mode")

    p_boundary = sub.add_parser("boundary", help="evaluate wave-function samples")
    common(p_boundary)
    p_boundary.add_argument("--t", help="height t, single value or comma list")
    p_boundary.add_argument("--x", help="x grid, single value or comma list")
    p_boundary.add_argument("--y", help="y grid, single value or comma list")
    p_boundary.add_argument("--lambda", dest="lam", help="squeeze, single value or comma list")
    p_boundary.add_argument("--n", help="level index")
    p_boundary.add_argument("--variant", choices=_BOUNDARY_VARIANTS)
    p_boundary.add_argument("--tol", help="quadrature tolerance on the eta-normalized scale")

    p_converge = sub.add_parser("converge", help="squeeze-convergence study")
    common(p_converge)
    p_converge.add_argument("--t", help="height t of the study point")
    p_converge.add_argument("--y", help="transverse coordinate (default 0)")
    p_converge.add_argument("--lambda", dest="lam", help="ascending comma list of squeezes")
    p_converge.add_argument("--n", help="level index")
    p_converge.add_argument("--variant", choices=STUDY_VARIANTS)

    return parser


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


def _merge_config(args: argparse.Namespace) -> Dict[str, str]:
    command = args.command
    merged: Dict[str, Optional[str]] = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        file_conf = _read_config_file(args.config)
        for key, value in file_conf.items():
            if key not in merged:
                raise DomainError(
                    f"config key {key!r} is not valid for the {command} command"
                )
            merged[key] = value
    for key in merged:
        attr = "lam" if key == "lambda" else key
        given = getattr(args, attr, None)
        if given is not None:
            merged[key] = given
    return {k: v for k, v in merged.items() if v is not None}


def _as_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise DomainError(f"{key} must be a number, got {raw!r}") from exc


def _as_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_window(raw: str) -> Tuple[float, float]:
    if ":" not in raw:
        raise DomainError(f"scan window must be lo:hi, got {raw!r}")
    lo_text, hi_text = raw.split(":", 1)
    return _as_float(lo_text, "t lower edge"), _as_float(hi_text, "t upper edge")


def _parse_list(raw: str, key: str) -> List[float]:
    values = [_as_float(part, key) for part in raw.split(",") if part != ""]
    if not values:
        raise DomainError(f"{key} list is empty")
    return values


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------


def _run_verify(merged: Dict[str, str]) -> Tuple[RunConfig, List[str], bool]:
    tol = _as_float(merged["tol"], "tol") if "tol" in merged else None
    params: Dict[str, object] = {
        "only": merged.get("only"),
        "tol": tol,
        "format": merged["format"],
        "out": merged.get("out"),
    }
    config = RunConfig("verify", params)
    results = run_checks(only=merged.get("only"), tol_override=tol)
    lines: List[str] = []
    if merged["format"] == "csv":
        lines.append("name,measured,tolerance,passed,detail")
        for r in results:
            detail = '"' + r.detail.replace('"', '""') + '"'
            lines.append(
                f"{r.name},{_fmt(r.measured)},{_fmt(r.tolerance)},"
                f"{'pass' if r.passed else 'fail'},{detail}"
            )
    else:
        for r in results:
            lines.append(
                f"name={r.name} measured={_fmt(r.measured)} "
                f"tolerance={_fmt(r.tolerance)} passed={_fmt_bool(r.passed)} "
                f"detail={r.detail}"
            )
    failed = any(not r.passed for r in results)
    return config, lines, failed


def _run_scan(merged: Dict[str, str]) -> Tuple[RunConfig, List[str], bool]:
    if "t" not in merged:
        raise DomainError("scan requires --t lo:hi")
    t_lo, t_hi = _parse_window(merged["t"])
    step = _as_float(merged["step"], "step")
    tol = _as_float(merged["tol"], "tol")
    mode = merged["mode"]
    lam = _as_float(merged["lambda"], "lambda")
    n = _as_int(merged["n"], "n")
    params: Dict[str, object] = {
        "t": merged["t"], "step": step, "tol": tol, "mode": mode,
        "lambda": lam, "n": n, "format": merged["format"], "out": merged.get("out"),
    }
    config = RunConfig("scan", params)
    records = scan_zeros(t_lo, t_hi, step=step, refine_tol=tol, mode=mode, lam=lam, n=n)
    lines: List[str] = []
    if merged["format"] == "csv":
        lines.append("t,residual,bracket_lo,bracket_hi,iterations,energy,converged")
        for r in records:
            lines.append(
                f"{_fmt(r.t)},{_fmt(r.residual)},{_fmt(r.bracket_lo)},"
                f"{_fmt(r.bracket_hi)},{r.iterations},{_fmt(r.energy)},"
                f"{_fmt_bool(r.converged)}"
            )
    else:
        for r in records:
            lines.append(
                f"t={_fmt(r.t)} residual={_fmt(r.residual)} "
                f"bracket_lo={_fmt(r.bracket_lo)} bracket_hi={_fmt(r.bracket_hi)} "
                f"iterations={r.iterations} energy={_fmt(r.energy)} "
                f"converged={_fmt_bool(r.converged)}"
            )
    return config, lines, False


def _boundary_value(
    variant: str, x: float, y: float, s: complex, n: int, lam: float, tol: Optional[float]
) -> complex:
    if variant == LIMIT:
        if x != 0.0:
            raise DomainError("the limit variant is defined on the boundary x = 0")
        return psi_boundary_limit(s, y)
    if x == 0.0:
        return psi_boundary(y, s, n, lam, variant=variant, target_tol=tol).value
    if variant != ORIGINAL:
        raise DomainError("x > 0 samples exist only for the original variant")
    return psi_full(x, y, s, n, lam).value


def _run_boundary(merged: Dict[str, str]) -> Tuple[RunConfig, List[str], bool]:
    ts = _parse_list(merged["t"], "t")
    xs = _parse_list(merged["x"], "x")
    ys = _parse_list(merged["y"], "y")
    lams = _parse_list(merged["lambda"], "lambda")
    rows_asked = len(ts) * len(xs) * len(ys) * len(lams)
    if rows_asked > MAX_BOUNDARY_ROWS:
        raise DomainError(
            f"boundary grid of {rows_asked} rows exceeds the work limit of "
            f"{MAX_BOUNDARY_ROWS} rows; shorten the t, lambda, y or x lists"
        )
    n = _as_int(merged["n"], "n")
    variant = merged["variant"]
    if variant not in _BOUNDARY_VARIANTS:
        raise DomainError(f"variant must be one of {_BOUNDARY_VARIANTS}")
    tol = _as_float(merged["tol"], "tol") if "tol" in merged else None
    params: Dict[str, object] = {
        "t": ts, "x": xs, "y": ys, "lambda": lams, "n": n,
        "variant": variant, "tol": tol,
        "format": merged["format"], "out": merged.get("out"),
    }
    config = RunConfig("boundary", params)
    lines: List[str] = []
    rows: List[str] = []
    for t in ts:
        s = complex(0.5, t)
        for lam in lams:
            for y in ys:
                for x in xs:
                    value = _boundary_value(variant, x, y, s, n, lam, tol)
                    if merged["format"] == "csv":
                        rows.append(
                            f"{_fmt(x)},{_fmt(y)},{_fmt(t)},{_fmt(lam)},{n},"
                            f"{variant},{_fmt(value.real)},{_fmt(value.imag)},"
                            f"{_fmt(abs(value))}"
                        )
                    else:
                        rows.append(
                            f"x={_fmt(x)} y={_fmt(y)} t={_fmt(t)} "
                            f"lambda={_fmt(lam)} n={n} variant={variant} "
                            f"re={_fmt(value.real)} im={_fmt(value.imag)} "
                            f"abs={_fmt(abs(value))}"
                        )
    if merged["format"] == "csv":
        lines.append("x,y,t,lambda,n,variant,re,im,abs")
    lines.extend(rows)
    return config, lines, False


def _run_converge(merged: Dict[str, str]) -> Tuple[RunConfig, List[str], bool]:
    t = _as_float(merged["t"], "t")
    y = _as_float(merged["y"], "y")
    lams = _parse_list(merged["lambda"], "lambda")
    n = _as_int(merged["n"], "n")
    variant = merged["variant"]
    params: Dict[str, object] = {
        "t": t, "y": y, "lambda": lams, "n": n, "variant": variant,
        "format": merged["format"], "out": merged.get("out"),
    }
    config = RunConfig("converge", params)
    study = convergence_study(complex(0.5, t), n, lams, variant=variant, y=y)
    lines: List[str] = []
    if merged["format"] == "csv":
        lines.append("lambda,observable,value_re,value_im,reference_re,reference_im,abs_error")
        for r in study.records:
            lines.append(
                f"{_fmt(r.lam)},{r.observable},{_fmt(r.value.real)},"
                f"{_fmt(r.value.imag)},{_fmt(r.reference.real)},"
                f"{_fmt(r.reference.imag)},{_fmt(r.abs_error)}"
            )
    else:
        for r in study.records:
            lines.append(
                f"lambda={_fmt(r.lam)} observable={r.observable} "
                f"value_re={_fmt(r.value.real)} value_im={_fmt(r.value.imag)} "
                f"reference_re={_fmt(r.reference.real)} "
                f"reference_im={_fmt(r.reference.imag)} "
                f"abs_error={_fmt(r.abs_error)}"
            )
    lines.append(
        f"# summary observable={study.observable} slope={_fmt(study.slope)} "
        f"intercept={_fmt(study.intercept)} fit_residual={_fmt(study.fit_residual)}"
    )
    return config, lines, False


_RUNNERS = {
    "verify": _run_verify,
    "scan": _run_scan,
    "boundary": _run_boundary,
    "converge": _run_converge,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        config, lines, failed = _RUNNERS[args.command](merged)
        text = "\n".join([config.echo_line()] + lines) + "\n"
        out_path = config.params.get("out")
        if out_path:
            Path(out_path).write_text(text)
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
