"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

import environment
import layers
import run
import workloads
from tracing import Tracer, self_times

hl = environment.import_package()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    np.random.default_rng(0).shuffle(samples)
    value, percentile, beyond = run.tail_latency(samples)
    assert value == 90.0  # 91..100 lie beyond it
    assert sum(s > value for s in samples) == beyond == 10
    assert percentile == 90.0
    value, percentile, beyond = run.tail_latency(list(range(1, 12)))
    assert (value, beyond) == (1, 10) and math.isclose(percentile, 100.0 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_latency([float(v) for v in range(10)]) == (9.0, 100.0, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 4.0, 8.0, 0, 0],
        ["c", 5.0, 6.0, 2, 0],  # child of b, not of root
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 2.0, 6.0, 0, 0], ["b", 4.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == 2.0  # children cover 2..10 within the root


def _bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "hankellift" or name.startswith("hankellift.")
    }


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = hl.blaschke.series_tail_bound
    tracer = Tracer(layers.targets())
    with tracer.installed():
        for module in (hl.blaschke, hl.model_space, hl.subspaces):
            assert module.series_tail_bound is not original
        for module in (hl.operators, hl.intertwine, hl.subspaces):
            assert module.null_space is not before["hankellift.operators"]["null_space"]
        hl.model_space.shifted_inner_columns(hl.blaschke.make_blaschke([0.5]), 8, k_max=3)
    assert tracer.calls["model_space.shifted_inner_columns"] == 1
    assert tracer.calls["blaschke.taylor_coefficients"] == 1
    assert tracer.calls["blaschke.series_tail_bound"] == 5  # one in taylor, four columns
    assert tracer.counts["model_space.shifted_inner_columns.columns"] == 4
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][key] is value for key, value in attrs.items()), name


def test_tracer_restores_bindings_when_a_call_raises():
    before = _bindings()
    with pytest.raises(hl.errors.AmbiguousRank):
        with Tracer(layers.targets()).installed() as tracer:
            hl.operators.null_space(np.diag([1.0, 1e-7]))
    assert tracer.counts["operators.null_space.refusals"] == 1
    assert all(
        _bindings()[name][key] is value for name, attrs in before.items() for key, value in attrs.items()
    )


def test_traced_counts_repeat_exactly(tmp_path):
    workload = workloads.Dichotomy(hl, 5, tmp_path)

    def counts():
        tracer = Tracer(layers.targets())
        with tracer.installed():
            for index in range(3):
                run.run_check(hl, workload, workload.item(index))
        metrics = tracer.layer_metrics(layers.layer_extras())
        return {k: v for k, v in metrics.items() if not k.endswith(".self_ms")}

    first = counts()
    assert first["intertwine.solve_intertwiner_space.calls"] == 3
    assert first == counts()


def _inputs(name, seed, workdir, count=16):
    workload = workloads.WORKLOADS[name](hl, seed, workdir)
    items = [workload.item(i) for i in range(count)]
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}
    return items, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = _inputs(name, 11, tmp_path)
    assert _inputs(name, 11, tmp_path) == first
    other = tmp_path / "other"
    other.mkdir()
    assert _inputs(name, 12, other) != first


def test_a_run_sends_no_input_twice(tmp_path):
    for name in ("dichotomy", "invariance", "high-degree"):
        workload = workloads.WORKLOADS[name](hl, 4, tmp_path)
        zeros = [tuple(workload.item(i)[-2 if name == "invariance" else 0].zeros) for i in range(64)]
        assert len(set(zeros)) == len(zeros), name
    workload = workloads.CliMix(hl, 4, tmp_path)
    requests = [tuple(workload.item(i)[1][:-2]) for i in range(64)]  # without --out
    distinct = {r for r in requests if r[1] != "hilbert"}
    assert len(distinct) == len(requests) - requests.count(("--command", "hilbert", "--order", "512"))


def test_high_degree_inputs_are_separated(tmp_path):
    workload = workloads.HighDegree(hl, 3, tmp_path)
    for u, pairs in map(workload.item, range(32)):
        zeros = u.zeros
        assert 12 <= len(zeros) <= 20 and 0 <= pairs <= len(zeros) // 2
        assert all(abs(z) <= 0.6 for z in zeros)
        planted = 0
        for i, z in enumerate(zeros):
            assert abs(z - z.conjugate()) >= 0.1
            for j, w in enumerate(zeros[i + 1 :], start=i + 1):
                assert abs(z - w) >= 0.1
                if w == z.conjugate():
                    planted += 1
                else:
                    assert abs(z - w.conjugate()) >= 0.1
        assert planted == pairs
        assert hl.intertwine.gcd_symbol_theta(u).degree == 2 * pairs


def test_conditioned_products_keep_the_battery_degree_and_planting():
    redrawn = 0
    for seed in range(200):
        first = hl.blaschke.random_blaschke(seed, max_degree=5, radius=0.8)
        u = workloads.separated_blaschke(hl.blaschke, seed, max_degree=5, radius=0.8)
        assert workloads.separated(u.zeros)
        assert u.degree == first.degree
        assert workloads.planted_pairs(u) == workloads.planted_pairs(first)
        if workloads.separated(first.zeros):
            assert list(u.zeros) == list(first.zeros)
        else:
            redrawn += 1
    assert 0 < redrawn < 100


def test_separated_rejects_near_real_near_conjugate_and_close_zeros():
    assert workloads.separated([0.3 + 0.2j, 0.3 - 0.2j, -0.4 + 0.1j])
    assert not workloads.separated([0.3 + 0.04j])
    assert not workloads.separated([0.3 + 0.2j, 0.32 - 0.21j])
    assert not workloads.separated([0.3 + 0.2j, 0.33 + 0.22j])


def test_benchmark_file_names_the_reported_metrics(tmp_path):
    spec = json.loads((environment.ROOT / "BENCHMARK.json").read_text())
    per_layer = set(Tracer([]).layer_metrics(layers.layer_extras()))
    per_layer |= {"trace.overhead_ratio", "failed_ratio", "wrong_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    workload = workloads.CliMix(hl, 1, tmp_path)
    cpus = os.sched_getaffinity(0)
    try:
        tally, metrics, tail = run.end_to_end(hl, workload, 0.001)
    finally:
        os.sched_setaffinity(0, cpus)  # end_to_end pins the process to one CPU
    assert tally.failed == 0 and tally.attempted == 1 + workloads.CLI_REPEATS
    assert tail["samples"] == 1
    reported = set(metrics) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} <= reported
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
