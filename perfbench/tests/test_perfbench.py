"""Tests of the benchmark itself: inputs, names, percentiles, speed scaling,
the gate, spans."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen_deep  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _reference():
    return json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))


# --- generator determinism ---------------------------------------------------

def test_default_seed_reproduces_committed_graphs_byte_for_byte():
    committed = {p.name: p.read_bytes() for p in sorted(gen_deep.DEFAULT_DIR.glob("*.edges"))}
    regenerated = {name: text.encode("utf-8") for name, text in gen_deep.generate().items()}
    assert committed == regenerated


def test_generator_depends_only_on_its_seed():
    assert gen_deep.generate(7, 2) == gen_deep.generate(7, 2)
    assert gen_deep.generate(7, 2) != gen_deep.generate(8, 2)


def test_generated_graphs_pass_the_screen():
    from iasl_lab import GroundSet, parse_graph, screen
    x = GroundSet(range(5))
    for text in gen_deep.generate(3, 2).values():
        g = parse_graph(text)
        assert (g.n, g.m) == (gen_deep.VERTICES, gen_deep.EDGES)
        assert g.is_connected() and screen(g, x).admissible()


def test_check_mode_flags_a_changed_file(tmp_path):
    for name, text in gen_deep.generate().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert gen_deep.main(["--check", "--out", str(tmp_path)]) == 0
    first = sorted(tmp_path.glob("*.edges"))[0]
    first.write_text(first.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert gen_deep.main(["--check", "--out", str(tmp_path)]) == 1


# --- metric names ------------------------------------------------------------

def test_metric_names_are_well_formed_and_unique():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert not set(metrics.COUNTS) & set(metrics.PER_LAYER)


def test_layer_summary_reports_every_per_layer_metric():
    t = tracer.Tracer("test")
    summary = metrics.layer_metrics(t)
    assert (set(summary) | {"trace.overhead_frac"}
            == set(metrics.PER_LAYER) | set(metrics.COUNTS))


# --- percentile and sample-count rule ----------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert metrics.percentile(values, 0.50) == 50
    assert metrics.percentile(values, 0.99) == 99
    assert metrics.percentile(reversed(values), 0.99) == 99
    assert metrics.percentile([4.0], 0.99) == 4.0


def test_p99_needs_ten_samples_beyond_it():
    assert metrics.beyond(0.99, 1000) == 10
    assert metrics.tail_resolved(0.99, 1000)
    assert metrics.beyond(0.99, 999) == 9
    assert not metrics.tail_resolved(0.99, 999)
    assert not metrics.tail_resolved(0.99, 42)
    assert metrics.tail_resolved(0.50, 20)
    assert not metrics.tail_resolved(0.50, 19)


def test_unresolved_tail_is_the_median_of_each_pass_maximum():
    assert metrics.tail_latency([list(range(1, 1001))]) == (990, True)
    # one slow pass cannot set the tail on its own
    assert metrics.tail_latency([[1, 5], [2, 50], [3, 7]]) == (7, False)
    # a pass that raised returns no samples and is left out
    assert metrics.tail_latency([[1, 5], [], [3, 7]]) == (6, False)


def test_pass_that_raised_is_reported_as_failed(capsys):
    probes = [speed.REFERENCE_S] * 2
    ok = {"setup_s": 0.05, "wall_s": 2.0, "peak_rss_mb": 25.0, "probe_s": probes,
          "speed_factor": 1.0, "speed_samples": 40,
          "instances_ms": [2000.0], "attempted": 1, "failed": 0, "nodes": {}}
    raised = dict(ok, instances_ms=[], failed=1)
    setups = [{"setup_s": 0.05, "probe_s": probes}] * 7
    for plain in ([raised], [ok, raised]):
        record = {"workload": "oracle-suite", "seed": 0, "trace": False,
                  "plain": plain, "traced": [], "setups": setups}
        summary = run.report(record)
        assert summary["failed"] == 1
        assert set(summary["metrics"]) == set(metrics.END_TO_END)
    out = capsys.readouterr().out
    assert "unavailable: no pass returned a latency" in out
    assert "instance_p99_ms 2000 ms" in out


# --- speed scaling -----------------------------------------------------------

def test_times_are_scaled_by_the_probe_around_them():
    ref = speed.REFERENCE_S
    assert speed.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a machine running at half speed doubles both the pass and the probe
    assert speed.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    # a state change within the pass: the probe's mean before and after
    assert speed.scaled(4.5, ref, 2 * ref) == pytest.approx(3.0)


def test_sampler_samples_through_the_work_and_reports_its_cost():
    with speed.Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert sampler.spent_s == pytest.approx(sum(sampler.samples))
    assert sampler.factor() > 0
    # work shorter than one interval still gets one sample
    with speed.Sampler(interval=10) as sampler:
        pass
    assert len(sampler.samples) == 1


def test_probe_touches_nothing_of_the_library():
    assert speed.unit() == speed.unit()
    assert "iasl_lab" not in speed.__dict__
    assert speed.probe(reps=1) > 0


# --- the correctness gate ----------------------------------------------------

def test_reference_covers_every_workload():
    ref = _reference()
    assert set(ref) == set(workloads.WORKLOADS)
    assert len(ref["min-ground-set"]) == 42
    assert len(ref["top-x4"]) == 995
    assert set(ref["iasgl-deep"].values()) == {"not found"}


def test_tampered_reference_makes_the_gate_report_failures():
    for name, ref in _reference().items():
        assert workloads.gate(dict(ref), ref) == 0
        key = sorted(ref)[0]
        tampered = dict(ref, **{key: ref[key] + "x"})
        assert workloads.gate(dict(ref), tampered) == 1, name
        missing = {k: v for k, v in ref.items() if k != key}
        assert workloads.gate(dict(ref), missing) == 1, name


def test_min_ground_set_table_matches_reference_for_cheap_rows():
    # the path rows need no cold topology enumeration over |X| = 4
    from iasl_lab import path
    state = {"ops": [(f"P_{n}", path(n), mode) for n in (2, 3, 4)
                     for mode in workloads.MODES]}
    workloads.mgs_run(state)
    ref = _reference()["min-ground-set"]
    table = workloads.mgs_table(state)
    assert table == {k: ref[k] for k in table}


# --- spans ---------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    spans = [(1, "oracle.check.P1", 0.0, 10.0, 0),
             (2, "oracle.solutions", 1.0, 4.0, 1),
             (3, "search.iasgl", 1.5, 3.5, 2),
             (4, "search.iasgl", 5.0, 6.0, 1)]
    own = tracer.self_times(spans)
    assert own == {"oracle.check.P1": 6.0, "oracle.solutions": 1.0, "search.iasgl": 3.0}
    assert tracer.totals(spans) == {
        "oracle.check.P1": 10.0, "oracle.solutions": 3.0, "search.iasgl": 3.0}


def test_core_busy_time_books_nested_cores_to_the_outer_one():
    spans = [(1, "search.top_iasgl", 0.0, 4.0, 0),
             (2, "search.iasgl", 0.5, 3.0, 1),
             (3, "search.top_iasl", 5.0, 9.0, 0),
             (4, "topology.enumerate_warm", 5.0, 6.0, 3),
             (5, "search.iasgl", 10.0, 11.0, 0)]
    assert metrics._core_busy(spans) == {
        "search.top_iasgl": 4.0, "search.top_iasl": 3.0, "search.iasgl": 1.0}


def test_traced_generator_charges_only_its_own_resumptions():
    t = tracer.Tracer("test")
    consumed = []
    with t.span("bench.pass"):
        for item in t.iterate("search.iasgl", (i for i in range(3))):
            consumed.append(item)
    assert consumed == [0, 1, 2]
    names = [s[1] for s in t.spans]
    assert names.count("search.iasgl") == 4  # three items and the stop
    outer = [s for s in t.spans if s[1] == "bench.pass"][0]
    assert all(s[4] == outer[0] for s in t.spans if s[1] == "search.iasgl")
