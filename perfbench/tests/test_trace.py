"""Two traced runs of one request list report identical work counts."""

from conftest import ROOT
from run import per_layer_names, trace
from workloads import Request, _scan_request, boundary_request, converge_request


def _small_pass(reference):
    pool = {e["id"]: e for e in reference["boundary"]}
    conv = {e["id"]: e for e in reference["converge"]}
    return [
        _scan_request(10.0, 23.0, "limit"),
        _scan_request(10.0, 23.0, "finite", 13.0, 20),
        boundary_request(pool["y0-14"]),
        boundary_request(pool["ypos-09"]),
        boundary_request(pool["full-02"]),
        boundary_request(pool["limit-02"]),
        converge_request(conv["conv-14"]),
        Request(("verify", "--only", "quad-linearity"), "verify", ref="quad-linearity"),
        Request(("verify", "--only", "eta-naive-agreement"), "verify", ref="eta-naive-agreement"),
        Request(("verify", "--only", "zero-residual"), "verify", ref="zero-residual-bounds"),
    ]


def test_traced_counts_repeat_exactly(reference):
    passes = [_small_pass(reference)]
    runs = [trace(ROOT, "scan-limit", 0, reference, passes) for _ in range(2)]
    counts = []
    for ledger, metrics, _, detail, spans in runs:
        assert ledger.result(metrics)["failed"] == 0
        assert set(metrics) == {name for name, _ in per_layer_names()}
        assert spans and all(end >= start for _, start, end, _, _ in spans)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    for name in ("specfun.eta.calls", "spectra.grid_points", "spectra.newton_iters",
                 "waveform.bare_overlaps.calls", "waveform.euler.terms",
                 "waveform.psi_boundary.calls", "specfun.chi.elements",
                 "specfun.gamma_complex.calls", "waveform.psi_full.calls",
                 "quad.integrate_halfline.calls", "oracles.eta_naive.calls"):
        assert counts[0][name] > 0, name


def test_self_times_partition_the_request_time(reference):
    ledger, metrics, _, detail, spans = trace(ROOT, "scan-limit", 0, reference,
                                              [_small_pass(reference)[:2]])
    total = sum(end - start for name, start, end, parent, _ in spans if parent is None)
    self_total = sum(detail["self_s"].values())
    assert abs(self_total - total) < 1e-6 * max(1.0, total)
