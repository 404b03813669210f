"""CLI contract: exit codes, CSV headers, determinism, config precedence."""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from zetawave.cli import main

SCAN_HEADER = "t,residual,bracket_lo,bracket_hi,iterations,energy,converged"
BOUNDARY_HEADER = "x,y,t,lambda,n,variant,re,im,abs"
CONVERGE_HEADER = "lambda,observable,value_re,value_im,reference_re,reference_im,abs_error"
VERIFY_HEADER = "name,measured,tolerance,passed,detail"


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


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    conf = tmp_path / "scan.conf"
    conf.write_text("t = 13:16\nnonsense_key = 1\n")
    rc, _, err = run_cli(capsys, "scan", "--config", str(conf))
    assert rc == 2
    assert "nonsense_key" in err


# ---------------------------------------------------------------------------
# exit codes


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
])
def test_non_finite_input_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


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
