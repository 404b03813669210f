"""BENCHMARK.json names exactly what run.py prints."""

import json

from conftest import ROOT
from run import END_TO_END, per_layer_names
from workloads import WORKLOADS


def test_metric_names_and_units_match():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_names()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    setup = [m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup == max(m["bound"] for m in bench["end_to_end"])
