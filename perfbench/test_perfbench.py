"""Tests of the benchmark itself: seeded inputs, metric names, failure
counting and the small parsers.  Fast; they run no timed workload."""

import json
import os
import re
import sys

import pytest

import run
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(run.SPECS))
def test_same_seed_gives_identical_inputs(workload):
    make = run.SPECS[workload].make
    first = [repr(make(7, i)) for i in range(12)]
    assert first == [repr(make(7, i)) for i in range(12)]
    assert first != [repr(make(8, i)) for i in range(12)]


def test_inputs_round_trip_as_literals():
    import ast
    for workload, spec in run.SPECS.items():
        inp = spec.make(3, 5)
        assert ast.literal_eval(repr(inp)) == inp, workload


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert "setup_s" in run.END_TO_END
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            bench = json.load(fh)
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
        assert {w["name"] for w in bench["workloads"]} == set(run.SPECS)


def test_typed_error_is_counted_as_failed_not_skipped():
    import coulombw
    from coulombw.errors import PreconditionError

    def flaky(cw, inp, tracer):
        if inp % 2:
            raise PreconditionError("odd op")
        return inp

    spec = run.Spec(lambda seed, i: i, flaky, lambda inp, out, ref: {
        "failed": False, "gated_errs": [1e-15]})
    ops, busy = run.measure(spec, coulombw, seed=0, seconds=0, count=6)
    run.check_ops("test", spec, coulombw, ops)
    values, notes = run.end_to_end(ops, setup_s=1.0, rss_mb=1.0)
    assert len(ops) == 6
    assert sum(op.result["failed"] for op in ops) == 3
    assert "fail_frac=3/6" in notes
    assert values["ops_per_s"] == pytest.approx(3 / sum(op.scaled for op in ops))


def test_tail_keeps_ten_values_above_it():
    lat = [float(i) for i in range(40)]
    value, pct, n = run.tail_latency(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert (pct, n) == (75.0, 40)
    assert run.tail_latency(lat[:5]) == (4.0, 100.0, 5)
    # from a fixed list: p90 would leave only 4 above it
    value, pct, n = run.tail_latency(lat, run.TAIL_PERCENTILES)
    assert (value, pct, n) == (29.0, 75, 40)
    value, pct, _ = run.tail_latency([float(i) for i in range(2000)], run.TAIL_PERCENTILES)
    assert (value, pct) == (1979.0, 99)


def test_scipy_import_time_counts_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg._misc",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |        770 | coulombw.oracle",
    ])
    assert run.scipy_import_s(stderr) == pytest.approx(750e-6)


def test_points_ladder_crosses_every_band():
    small = [r for r in workloads.LADDER if r <= 3.4]
    mid = [r for r in workloads.LADDER if 3.4 < r <= 40]
    asym = [r for r in workloads.LADDER if r > 40]
    assert small and mid and asym
    assert min(workloads.LADDER) <= 0.1 and max(workloads.LADDER) >= 80
    assert [workloads.LADDER[j] for band in workloads.BANDS for j in band] == list(workloads.LADDER)
    assert [r <= 3.4 for r in workloads.LADDER].count(True) == len(workloads.BANDS[0])
