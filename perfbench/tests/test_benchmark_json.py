"""BENCHMARK.json stays within the limits of its format and names exactly
the per-layer metrics that a traced run reports."""

import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from layers import PER_LAYER, RUN_TOTALS  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60 and isinstance(BENCH["run_seconds"], int)
    assert 2 <= len(BENCH["workloads"]) <= 8
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_per_layer_list_matches_the_traced_run():
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    reported = {name: unit for name, (unit, _) in {**PER_LAYER, **RUN_TOTALS}.items()}
    assert listed == reported
