"""CLI contract: exit codes, CSV headers, determinism, config precedence.

Run as a script (`PYTHONPATH=src python3 tests/test_cli.py`), it rewrites
the expected exit code, stdout, stderr and report of every golden case in
tests/data/cli_reports.json from the current code and prints the names of
the cases it changed.  With `--check` it writes nothing: it prints the
names of the cases whose replay differs from the file and exits 1 if there
are any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetawave.cli import main

SCAN_HEADER = "t,residual,bracket_lo,bracket_hi,iterations,energy,converged"
BOUNDARY_HEADER = "x,y,t,lambda,n,variant,re,im,abs"
CONVERGE_HEADER = "lambda,observable,value_re,value_im,reference_re,reference_im,abs_error"
VERIFY_HEADER = "name,measured,tolerance,passed,detail"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_reports.json"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == header
    return [line.split(",") for line in lines[2:] if not line.startswith("#")]


# ---------------------------------------------------------------------------
# verify


def test_verify_default_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify")
    rows = csv_rows(out, VERIFY_HEADER)
    assert rc == 0
    assert len(rows) == 21
    assert all(row[3] == "pass" for row in rows)


def test_verify_impossible_tolerance_fails(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--tol", "1e-20")
    rows = csv_rows(out, VERIFY_HEADER)
    assert rc == 1
    assert any(row[3] == "fail" for row in rows)
    # the report is still complete: every registered check is listed
    assert len(rows) == 21


def test_verify_only_filter(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--only", "mehler")
    rows = csv_rows(out, VERIFY_HEADER)
    assert rc == 0
    assert len(rows) == 1
    assert rows[0][0] == "mehler-equivalence"


# ---------------------------------------------------------------------------
# scan


def test_scan_wide_window_three_rows(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--t", "0.1:30", "--step", "0.05",
                         "--mode", "limit")
    rows = csv_rows(out, SCAN_HEADER)
    assert rc == 0
    assert len(rows) == 3
    ts = [float(row[0]) for row in rows]
    assert ts == sorted(ts)
    assert ts[0] == pytest.approx(14.134725, abs=1e-5)


def test_scan_finite_mode_one_row(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--t", "13:16", "--mode", "finite",
                         "--lambda", "12", "--n", "0")
    rows = csv_rows(out, SCAN_HEADER)
    assert rc == 0
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(14.1347, abs=1e-3)
    assert rows[0][6] == "false"


def test_scan_empty_window_header_only(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--t", "2:5")
    rows = csv_rows(out, SCAN_HEADER)
    assert rc == 0
    assert rows == []


def test_scan_records_format(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--t", "13:16", "--format", "records")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("t=14.134725")
    assert "converged=true" in lines[1]


def test_scan_energy_column_is_negated_t(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--t", "13:16")
    row = csv_rows(out, SCAN_HEADER)[0]
    assert float(row[5]) == pytest.approx(-float(row[0]))


# ---------------------------------------------------------------------------
# boundary


def test_boundary_modulus_decays_in_y(capsys):
    rc, out, _ = run_cli(capsys, "boundary", "--t", "10", "--y", "0,0.5,1,2",
                         "--lambda", "12", "--variant", "original")
    rows = csv_rows(out, BOUNDARY_HEADER)
    assert rc == 0
    mods = [float(row[8]) for row in rows]
    assert all(a > b for a, b in zip(mods, mods[1:]))


def test_boundary_zero_suppressed_at_every_lambda(capsys):
    rc, out, _ = run_cli(capsys, "boundary", "--t", "14.134725,10",
                         "--lambda", "8,10,12", "--variant", "original")
    rows = csv_rows(out, BOUNDARY_HEADER)
    assert rc == 0
    at_zero = {row[3]: float(row[8]) for row in rows if row[2] == "14.134725"}
    baseline = {row[3]: float(row[8]) for row in rows if row[2] == "10"}
    assert set(at_zero) == {"8", "10", "12"}
    for lam, value in at_zero.items():
        assert value < baseline[lam]


def test_boundary_limit_variant_kills_positive_y(capsys):
    rc, out, _ = run_cli(capsys, "boundary", "--t", "10", "--y", "0.5,1",
                         "--variant", "limit")
    rows = csv_rows(out, BOUNDARY_HEADER)
    assert rc == 0
    assert [float(row[8]) for row in rows] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# converge


def summary_fields(out: str) -> dict[str, str]:
    line = [l for l in out.splitlines() if l.startswith("# summary ")][0]
    return dict(part.split("=", 1) for part in line[len("# summary "):].split())


def test_converge_tilde_slope(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--t", "10", "--variant", "tilde",
                         "--lambda", "8,10,12")
    assert rc == 0
    assert csv_rows(out, CONVERGE_HEADER)[0][1] == "tilde"
    assert float(summary_fields(out)["slope"]) == pytest.approx(-1.0, abs=0.05)


def test_converge_corrected_slope(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--t", "5",
                         "--variant", "tilde-corrected", "--lambda", "8,10,12")
    assert rc == 0
    assert float(summary_fields(out)["slope"]) == pytest.approx(-2.0, abs=0.2)


def test_converge_original_errors_monotone(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--t", "10", "--variant", "original",
                         "--lambda", "8,10,12")
    rows = csv_rows(out, CONVERGE_HEADER)
    assert rc == 0
    errors = [float(row[6]) for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# determinism and output plumbing


def test_identical_config_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "scan", "--t", "13:16")
    _, second, _ = run_cli(capsys, "scan", "--t", "13:16")
    assert first == second


def test_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "scan", "--t", "13:16")
    target = tmp_path / "zeros.csv"
    rc, out, _ = run_cli(capsys, "scan", "--t", "13:16", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == stdout_text


def test_config_echo_line(capsys):
    _, out, _ = run_cli(capsys, "scan", "--t", "2:5")
    assert out.splitlines()[0] == (
        "# config command=scan format=csv lambda=12 mode=limit n=0 "
        "step=0.05 t=2:5 tol=1e-10"
    )


def test_config_echo_keeps_every_digit(capsys):
    # to 15 significant digits both heights read 14.1347251417347, although
    # their |psi| differ from the 4th digit on
    _, out, _ = run_cli(capsys, "boundary", "--t", "14.134725141734694", "--lambda", "12")
    assert "t=14.134725141734695 " in out.splitlines()[0]
    _, out, _ = run_cli(capsys, "boundary", "--t", "14.1347251417347", "--lambda", "12")
    assert "t=14.1347251417347 " in out.splitlines()[0]


def _digits17(exponent: int):
    """Floats read from 17-significant-digit decimals in [10^e, 10^(e+1))."""
    return st.integers(10**16, 10**17 - 1).map(lambda m: float(f"{m}e{exponent - 16}"))


def _replayed(argv: list) -> tuple[str, str]:
    """A report, and the report of its own '# config' header fed back as --config."""
    with tempfile.TemporaryDirectory() as tmp:
        first, conf, second = (Path(tmp) / name for name in ("a.csv", "run.conf", "b.csv"))
        assert main(argv + ["--out", str(first)]) == 0
        report = first.read_text()
        command, *pairs = report.splitlines()[0].removeprefix("# config ").split(" ")
        assert command == f"command={argv[0]}"
        conf.write_text("\n".join(pairs) + "\n")
        assert main([argv[0], "--config", str(conf), "--out", str(second)]) == 0
        return report, second.read_text()


@given(
    t=_digits17(1), x=_digits17(-1), y=_digits17(-1), lam=_digits17(0),
    variant=st.sampled_from(["original", "limit"]),
)
@example(t=14.134725141734694, x=0.5, y=0.0, lam=12.0, variant="limit")
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
def test_boundary_header_replays_its_report(t, x, y, lam, variant):
    # x > 0 rows and the limit variant are closed forms, so each draw is cheap
    argv = ["boundary", "--t", repr(t), "--y", repr(y), "--lambda", repr(lam),
            "--variant", variant, "--x", "0" if variant == "limit" else repr(x)]
    report, replay = _replayed(argv)
    assert replay == report


@given(lo=_digits17(1), step=_digits17(-2), tol=_digits17(-11))
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
def test_scan_header_replays_its_report(lo, step, tol):
    argv = ["scan", "--t", f"{lo!r}:{lo + 3.0!r}", "--step", repr(step), "--tol", repr(tol)]
    report, replay = _replayed(argv)
    assert replay == report


def test_subprocess_runs_byte_identical():
    argv = [sys.executable, "-m", "zetawave", "scan", "--t", "13:16"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"# config ")


# ---------------------------------------------------------------------------
# config file precedence


def test_config_file_overrides_defaults(capsys, tmp_path):
    conf = tmp_path / "scan.conf"
    conf.write_text("# window picked for the first zero\nt = 13:16\nstep = 0.1\n")
    rc, out, _ = run_cli(capsys, "scan", "--config", str(conf))
    assert rc == 0
    assert "step=0.1" in out.splitlines()[0]
    assert len(csv_rows(out, SCAN_HEADER)) == 1


def test_flags_override_config_file(capsys, tmp_path):
    conf = tmp_path / "scan.conf"
    conf.write_text("t = 13:16\nstep = 0.1\n")
    rc, out, _ = run_cli(capsys, "scan", "--config", str(conf), "--step", "0.05")
    assert rc == 0
    assert "step=0.05" in out.splitlines()[0]


def test_config_file_value_is_checked_like_its_flag(capsys, tmp_path):
    conf = tmp_path / "scan.conf"
    conf.write_text("t = 13:16\nformat = json\n")
    rc, out, err = run_cli(capsys, "scan", "--config", str(conf))
    assert rc == 2
    assert out == ""
    assert err == "error: format must be one of ('csv', 'records')\n"


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    conf = tmp_path / "scan.conf"
    conf.write_text("t = 13:16\nnonsense_key = 1\n")
    rc, _, err = run_cli(capsys, "scan", "--config", str(conf))
    assert rc == 2
    assert "nonsense_key" in err


# ---------------------------------------------------------------------------
# exit codes


def test_unwritable_report_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "r.csv"
    rc, out, err = run_cli(capsys, "boundary", "--t", "5", "--variant", "limit",
                           "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert not target.exists()


def test_invalid_window_exits_2(capsys):
    rc, _, err = run_cli(capsys, "scan", "--t", "16:13")
    assert rc == 2
    assert err.startswith("error: need 0 < t_lo < t_hi")


def test_malformed_window_exits_2(capsys):
    rc, _, err = run_cli(capsys, "scan", "--t", "13")
    assert rc == 2
    assert "lo:hi" in err


def test_overflow_regime_exits_3(capsys):
    rc, _, err = run_cli(capsys, "boundary", "--t", "10", "--y", "0.5",
                         "--lambda", "26", "--variant", "original")
    assert rc == 3
    assert "lam <= 25" in err


@pytest.mark.parametrize("argv", [
    ("boundary", "--t", "nan"),
    ("boundary", "--t", "inf"),
    ("boundary", "--t", "5", "--y", "nan"),
    ("boundary", "--t", "5", "--y", "inf"),
    ("boundary", "--t", "5", "--tol", "nan"),
    ("converge", "--t", "nan"),
    ("boundary", "--t", "5", "--x", "nan"),
    ("boundary", "--t", "5", "--x", "inf"),
    ("scan", "--t", "1:20", "--step", "nan"),
    ("scan", "--t", "1:20", "--tol", "nan"),
    ("scan", "--t", "1:20", "--tol", "inf"),
    ("boundary", "--t", "5", "--y", "nan", "--variant", "limit"),
    ("boundary", "--t", "5", "--y", "inf", "--variant", "limit"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "inf"),
    ("verify", "--tol", "-1"),  # failed every check and exited 1
])
def test_non_finite_input_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("t, tol, code", [
    ("5", "1e300", 2),  # printed |psi| = 7.06e92 with exit 0
    ("5", "1e20", 2),  # printed 0.328, where the value is 5.31e-7
    ("5", "0", 2),  # both were replaced by 3x the rounding floor
    ("5", "-1", 2),
    ("20", "1e-9", 3),  # was loosened to 3x the floor, 0.063
])
def test_explicit_boundary_tolerance_is_met_or_refused(capsys, t, tol, code):
    rc, out, err = run_cli(capsys, "boundary", "--t", t, "--tol", tol)
    assert rc == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("t", ["500", "1e308"])
def test_boundary_past_the_gamma_range_exits_3(capsys, t):
    # |Gamma(1/2 + it)| is below the double range from t ~ 451: --t 500
    # ended in a ZeroDivisionError and --t 1e308 in a ValueError, exit 1
    rc, out, err = run_cli(capsys, "boundary", "--t", t)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "double-precision range" in err


@pytest.mark.parametrize("t", ["230", "300"])
def test_boundary_below_the_normal_range_exits_3(capsys, t):
    # |varphi_zero(1/2 + it)| leaves the normal doubles near t = 225.5:
    # --t 230 printed a subnormal with wrong digits (1.159e-313) and
    # --t 300 printed -0,0,0, both with exit 0
    rc, out, err = run_cli(capsys, "boundary", "--t", t, "--variant", "limit")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "double-precision range" in err


def test_boundary_limit_product_below_the_normal_range_exits_3(capsys):
    # varphi_zero(1/2 + 225i) is still a normal double, but the limit value
    # 2 varphi_zero(s) eta(s) is not: --t 225 printed |psi| = 1.35e-308, a
    # subnormal, with exit 0
    rc, out, err = run_cli(capsys, "boundary", "--t", "225", "--variant", "limit")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "double-precision range" in err


def test_boundary_just_inside_the_normal_range(capsys):
    rc, out, _ = run_cli(capsys, "boundary", "--t", "220", "--variant", "limit")
    assert rc == 0
    # eta by Borwein's weights; mpmath gives 3.18702807105271e-300
    assert csv_rows(out, BOUNDARY_HEADER)[0][8] == "3.18702807105256e-300"


def test_off_axis_value_where_the_weight_underflows(capsys):
    # chi_1000(2000) = 0.0100316490260881 (mpmath) while e^{-1000} is 0 in
    # doubles; the report used to print 0,0,0
    rc, out, _ = run_cli(capsys, "boundary", "--t", "5", "--x", "1", "--y", "2000",
                         "--n", "1000", "--lambda", "0")
    assert rc == 0
    value = float(csv_rows(out, BOUNDARY_HEADER)[0][8])
    assert value == pytest.approx(0.0100316490260881 / (2.0 * math.pi) ** 0.5, rel=1e-12)


def test_cancelled_level_sum_exits_3(capsys):
    # the bare overlaps of level 30 at lambda 0.3 lose every digit to
    # rounding; boundary at x > 0 used to sum them and print
    # |psi| = 1.05e19, and now prints phi_s(1) chi_30(0) = 1/sqrt(2 pi)
    rc, out, _ = run_cli(capsys, "boundary", "--t", "5", "--x", "1",
                         "--n", "30", "--lambda", "0.3")
    assert rc == 0
    assert csv_rows(out, BOUNDARY_HEADER)[0][8] == "0.398942280401433"
    # the finite scan still sums them, and refuses
    rc, out, err = run_cli(capsys, "scan", "--t", "1:30", "--mode", "finite",
                           "--lambda", "2", "--n", "40")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "rounding" in err


def test_off_axis_value_past_the_oscillation_edge(capsys):
    # e^lambda y = 291: the level sum's first 64 levels all sat past their
    # oscillation edge, and it printed |psi| = 7.6e-15 with exit 0
    rc, out, _ = run_cli(capsys, "boundary", "--t", "20", "--x", "1", "--y", "0.002",
                         "--lambda", "11.886", "--n", "1")
    assert rc == 0
    assert csv_rows(out, BOUNDARY_HEADER)[0][8] == "0.397746450450646"


def test_subnormal_x_is_finite(capsys):
    # phi_s(1e-322) = 1e-322^(-1/2) / sqrt(2 pi) is finite; the level sum
    # divided x by m + 1, underflowed to 0 and exited 2
    rc, out, _ = run_cli(capsys, "boundary", "--t", "5", "--x", "1e-322", "--lambda", "10")
    assert rc == 0
    assert csv_rows(out, BOUNDARY_HEADER)[0][8] == "4.01331029866849e+160"


@pytest.mark.parametrize("argv", [
    ("boundary", "--t", "5"),
    ("boundary", "--t", "5", "--x", "1"),
    ("scan", "--t", "1:30", "--mode", "finite"),
    ("converge",),
])
def test_huge_level_index_exits_2_before_work(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv, "--n", "1000000000")
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "quantum number" in err
    assert elapsed < 0.5


def test_boundary_grid_over_the_row_cap_exits_2_before_work(capsys):
    # 17 t x 16 x x 16 y = 4352 rows, past the 4096-row cap
    ts = ",".join(str(5.0 + 0.5 * i) for i in range(17))
    grid = ",".join(str(0.25 * i) for i in range(16))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "boundary", "--t", ts, "--x", grid, "--y", grid)
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "4352 rows" in err and "work limit" in err
    assert elapsed < 0.5


@pytest.mark.parametrize("mode", ["limit", "finite"])
def test_runaway_scan_grid_exits_2_before_work(capsys, mode):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "scan", "--t", "0.1:120", "--step", "1e-9", "--mode", mode)
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "work limit" in err
    assert elapsed < 0.5


def test_scan_requires_window(capsys):
    rc, _, err = run_cli(capsys, "scan")
    assert rc == 2
    assert "--t" in err


# ---------------------------------------------------------------------------
# golden reports: every command in both formats, --out, config files and
# the exit-2 and exit-3 paths, replayed byte for byte


def _replay_case(case: dict, tmp: Path) -> dict:
    """Exit code, stdout, stderr and written report of one golden case.

    "{tmp}" in the argv, and the temporary directory in the results, stand
    for a fresh directory holding the case's config file as run.conf.
    """
    if "config" in case:
        (tmp / "run.conf").write_text(case["config"])
    argv = [arg.replace("{tmp}", str(tmp)) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    report = tmp / "report"
    result = {
        "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "report": report.read_text() if report.exists() else None,
    }
    return {k: v.replace(str(tmp), "{tmp}") if isinstance(v, str) else v
            for k, v in result.items()}


_GOLDEN_CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _GOLDEN_CASES, ids=[c["name"] for c in _GOLDEN_CASES])
def test_golden_report(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr", "report")}
    assert _replay_case(case, tmp_path) == expected


def _stale_cases(cases: list) -> list[tuple[str, dict]]:
    """(name, replay) of each golden case whose replay differs from its record."""
    stale = []
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            replay = _replay_case(case, Path(tmp))
        if any(case[key] != value for key, value in replay.items()):
            stale.append((case["name"], replay))
    return stale


def test_stale_golden_cases_are_named():
    case = next(c for c in _GOLDEN_CASES if c["name"] == "scan-no-window")
    edited = dict(case, name="scan-no-window-edited", stderr="error: something else\n")
    assert _stale_cases([case, edited]) == [("scan-no-window-edited", {
        key: case[key] for key in ("exit", "stdout", "stderr", "report")
    })]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden reports from the current code.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any case differs from the file")
    check = parser.parse_args().check
    stale = _stale_cases(_GOLDEN_CASES)
    for name, _ in stale:
        print(name)
    if check:
        sys.exit(1 if stale else 0)
    replays = dict(stale)
    for golden in _GOLDEN_CASES:
        golden.update(replays.get(golden["name"], {}))
    GOLDEN.write_text(json.dumps(_GOLDEN_CASES, indent=1) + "\n")
