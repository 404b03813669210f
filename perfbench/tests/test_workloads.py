"""The seeded generator: deterministic, inside the documented ranges."""

import math

import pytest

from workloads import (
    FINITE_DISPLACEMENT_MAX, FINITE_SHIFT_MAX, VERIFY_CHECKS, WORKLOADS, boundary_pool,
    build_passes,
)

SEEDS = (0, 1, 7, 12345)


def _argvs(passes):
    return [[r.argv for r in p] for p in passes]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload, reference):
    a = build_passes(workload, 3, 20, reference)
    b = build_passes(workload, 3, 20, reference)
    assert _argvs(a) == _argvs(b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_requests(workload, reference):
    a = build_passes(workload, 3, 20, reference)
    b = build_passes(workload, 4, 20, reference)
    assert _argvs(a) != _argvs(b)


def _float_list(argv, flag):
    return [float(v) for v in argv[argv.index(flag) + 1].split(",")]


@pytest.mark.parametrize("workload", ["scan-limit", "scan-finite"])
def test_scan_passes_partition_the_range(workload, reference):
    zeros = [float(z["t"]) for z in reference["zeros"]]
    for seed in SEEDS:
        for requests in build_passes(workload, seed, 30, reference):
            windows = sorted(r.window for r in requests)
            assert windows[0][0] == pytest.approx(0.1) and windows[-1][1] == 120.0
            assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
            for lo, hi in windows:
                assert 0.1 <= lo < hi <= 120.0
                # every zero sits well inside its window
                assert all(min(z - lo, hi - z) > 0.1 for z in zeros if lo < z < hi)


def test_finite_levels_stay_in_regime(reference):
    zeros = [(float(z["t"]), abs(complex(*map(float, z["shift"])))) for z in reference["zeros"]]
    for seed in SEEDS:
        for requests in build_passes("scan-finite", seed, 30, reference):
            for r in requests:
                lam, n = _float_list(r.argv, "--lambda")[0], int(r.argv[r.argv.index("--n") + 1])
                assert 12.0 <= lam <= 16.0 and 0 <= n <= 300
                delta = (2 * n + 1) * math.exp(-lam)
                assert delta <= FINITE_SHIFT_MAX
                lo, hi = r.window
                assert all(delta * k <= FINITE_DISPLACEMENT_MAX for t, k in zeros if lo < t < hi)


def test_boundary_requests_stay_in_range(reference):
    for seed in SEEDS:
        for requests in build_passes("boundary", seed, 10, reference):
            for r in requests:
                ts = _float_list(r.argv, "--t")
                assert all(0.0 < t <= 60.0 for t in ts)
                if r.argv[0] == "converge":
                    continue
                ys = _float_list(r.argv, "--y")
                variant = r.argv[r.argv.index("--variant") + 1]
                if any(y > 0 for y in ys) and variant != "limit" and r.kind != "boundary:full":
                    assert all(t <= 20.0 for t in ts)
                    if variant == "original":
                        assert all(lam <= 25.0 for lam in _float_list(r.argv, "--lambda"))


def test_boundary_passes_run_the_whole_regime_pool(reference):
    pool = sorted(r.argv for r in boundary_pool(reference))
    for requests in build_passes("boundary", 5, 3, reference):
        assert sorted(r.argv for r in requests) == pool


def test_known_defect_requests_stay_in_the_defect_report(reference):
    """y = 0 boundary requests above t = 17 (ROADMAP item 3) are what defects.py runs."""
    outside = boundary_pool(reference, regime=False)
    assert not {r.argv for r in outside} & {r.argv for r in boundary_pool(reference)}
    defect = [r for r in outside
              if r.kind == "boundary:y0" and max(_float_list(r.argv, "--t")) > 17.0]
    assert len(defect) >= 20


def test_verify_names_are_the_package_checks():
    from zetawave.verify import check_names

    assert list(VERIFY_CHECKS) == check_names()
    for name in VERIFY_CHECKS:
        assert [other for other in VERIFY_CHECKS if name in other] == [name]


def test_verify_pass_runs_every_check_once(reference):
    for requests in build_passes("verify", 5, 3, reference):
        assert sorted(r.argv[2] for r in requests) == sorted(VERIFY_CHECKS)
