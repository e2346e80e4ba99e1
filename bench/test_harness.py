"""Self-tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import time

import pytest

from bench import ROOT, stats, trace, use_source_tree

use_source_tree()


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


class TestPercentileRule:
    def test_ten_samples_beyond(self):
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.reportable(100, 0.9)
        assert not stats.reportable(99, 0.9)
        assert not stats.reportable(25, 0.9)
        assert stats.reportable(1000, 0.99)

    def test_short_runs_flag_their_p90(self):
        from bench.__main__ import sample_notes, unreportable
        from bench.workloads import Outcome

        short = Outcome(setup=[1.0], walls=[1.0], latencies=[0.1] * 25)
        assert unreportable(short) == ["lat_p90_ms"]
        assert "UNREPORTABLE" in sample_notes(short)["lat_p90_ms"]
        assert "UNREPORTABLE" not in sample_notes(short)["lat_p50_ms"]
        assert unreportable(Outcome(latencies=[0.1] * 100)) == []

    def test_percentile_is_nearest_rank(self):
        assert stats.percentile([4, 1, 3, 2], 0.5) == 2
        assert stats.percentile(range(1, 101), 0.9) == 90
        assert stats.percentile([1, 2, 3, 4, 5], 0.9) == 5
        assert stats.percentile([5], 0.9) == 5

    def test_histogram_delta_quantile(self):
        before = stats.parse_prometheus(
            'x_bucket{le="0.001"} 4\nx_bucket{le="+Inf"} 4\n'
        )
        after = stats.parse_prometheus(
            'x_bucket{le="0.001"} 4\nx_bucket{le="0.01"} 14\n'
            'x_bucket{le="+Inf"} 14\n'
        )
        from repro.obs.metrics import BUCKET_BOUNDS

        buckets = stats.histogram_delta(before, after, "x")
        assert buckets == [(0.01, 10.0)]
        lower = BUCKET_BOUNDS[BUCKET_BOUNDS.index(0.01) - 1]
        assert lower < stats.bucket_quantile(buckets, 0.5) < 0.01


class TestSelfTime:
    def test_nested_spans(self):
        outer = _span("a", 0.0, 10.0)
        middle = _span("b", 1.0, 4.0, outer)
        inner = _span("c", 2.0, 3.0, middle)
        sibling = _span("d", 5.0, 6.0, outer)
        totals = trace.self_times([outer, middle, inner, sibling])
        assert totals["a"] == (1, 6.0, 10.0)
        assert totals["b"] == (1, 2.0, 3.0)
        assert totals["c"] == (1, 1.0, 1.0)
        assert totals["d"] == (1, 1.0, 1.0)
        assert trace.top_level_seconds([outer, middle, inner, sibling]) == 10

    def test_repeated_name_sums(self):
        outer = _span("a", 0.0, 4.0)
        spans = [outer, _span("a", 1.0, 2.0, outer)]
        assert trace.self_times(spans)["a"] == (2, 4.0, 5.0)


class TestScaledClock:
    def test_scale_divides_by_the_slices_around(self):
        from bench import reference

        nominal = reference.SLICE_NOMINAL_S
        assert reference.scale(0.010, nominal, nominal) == pytest.approx(0.010)
        assert reference.scale(0.010, nominal, 3 * nominal) \
            == pytest.approx(0.005)

    def test_operations_share_the_slice_between_them(self, monkeypatch):
        from bench import reference

        nominal = reference.SLICE_NOMINAL_S
        slices = iter([nominal, 3 * nominal, 2 * nominal, 9 * nominal])
        monkeypatch.setattr(reference, "time_slice", lambda: next(slices))
        clock = reference.ScaledClock()
        result, seconds, scaled = clock.run(lambda: time.sleep(0.02) or 7)
        assert result == 7 and seconds >= 0.02
        assert scaled == pytest.approx(seconds / 2)
        # The second operation sits between the slices of 3 and 2.
        _, seconds, scaled = clock.run(lambda: time.sleep(0.01))
        assert scaled == pytest.approx(seconds / 2.5)
        with pytest.raises(KeyError):
            clock.run(lambda: {}["missing"])
        # A failed operation still takes its closing slice.
        assert next(slices, None) is None


class _FakeSender:
    """Answers at once, except for one index it stalls on."""

    def __init__(self, mix, stall_index):
        self.mix = mix
        self.stall_index = stall_index
        self.checked = []

    def send(self, index):
        if index == self.stall_index:
            time.sleep(0.05)
        return index

    def verify(self, index, response):
        self.checked.append(index)
        return response == index


def test_closed_loop_charges_a_stall_to_its_own_request(monkeypatch):
    """Requests go one at a time, so a 50 ms stall lengthens its own
    round trip and its block, not the requests after it."""
    from bench import load, reference

    monkeypatch.setattr(reference, "time_slice",
                        lambda: 2 * reference.SLICE_NOMINAL_S)
    mix = [("costs", {}), ("compile", {}), ("simulate", {}), ("sweep", {})]
    sender = _FakeSender(mix, stall_index=3)
    blocks = load.closed_loop(sender, random.Random(1), end=0.0,
                              min_blocks=2)
    assert len(blocks) == 2
    block = sum(load.BLOCK_REPEATS[kind] for kind, _ in mix)
    assert [len(b.samples) for b in blocks] == [block, block]
    assert len(sender.checked) == 2 * block
    for sample in (s for b in blocks for s in b.samples):
        assert sample.ok
        assert sample.scaled == pytest.approx(sample.seconds / 2)
        if sample.index == 3:
            assert sample.seconds >= 0.05
        else:
            assert sample.seconds < 0.01
    stalls = load.BLOCK_REPEATS["sweep"]
    assert blocks[0].seconds >= stalls * 0.05


class TestDaemonSchedule:
    def test_mix_covers_every_kernel_and_application(self):
        from collections import Counter

        from bench import load
        from repro.apps.suite import APPLICATION_ORDER
        from repro.kernels.suite import PERFORMANCE_SUITE

        for seed in (1, 2, 3):
            mix = load.build_mix(seed)
            kinds = Counter(kind for kind, _ in mix)
            assert kinds == {"costs": 8, "compile": len(PERFORMANCE_SUITE),
                             "simulate": len(APPLICATION_ORDER), "sweep": 4}
            assert sorted(b["kernel"] for k, b in mix if k == "compile") \
                == sorted(PERFORMANCE_SUITE)
            assert sorted(b["application"] for k, b in mix
                          if k == "simulate") == sorted(APPLICATION_ORDER)

    def test_every_block_holds_the_same_multiset(self):
        from collections import Counter

        from bench import load

        mix = load.build_mix(1)
        sequence = load.block_sequence(random.Random(1), mix, 3)
        size = len(sequence) // 3
        blocks = [Counter(sequence[i * size:(i + 1) * size]) for i in range(3)]
        assert blocks[0] == blocks[1] == blocks[2]
        shares = Counter()
        for index, count in blocks[0].items():
            shares[mix[index][0]] += count
        assert shares == {"costs": 48, "compile": 24, "simulate": 24,
                          "sweep": 12}
        assert sequence[:size] != sequence[size:2 * size]


def test_compile_outcomes_are_classified(tmp_path):
    from repro.compiler import cache as cache_module
    from repro.compiler import pipeline
    from repro.core.config import ProcessorConfig
    from repro.frontend import graph_from_document

    document = {
        "schema_version": 1, "name": "bench_tiny",
        "nodes": [
            {"op": "sb_read", "stream": "in0"},
            {"op": "fadd", "args": [0, 0]},
            {"op": "sb_write", "args": [1], "stream": "out0"},
        ],
    }
    kernel = graph_from_document(document)
    config = ProcessorConfig(8, 5)
    saved = cache_module._default_cache
    cache_module.configure_default_cache(tmp_path)
    tracer = trace.Tracer()
    installation = trace.install(tracer)
    try:
        pipeline.clear_cache()
        pipeline.compile_kernel(kernel, config)      # nothing cached
        pipeline.compile_kernel(kernel, config)      # in-memory memo
        pipeline.clear_cache()
        pipeline.compile_kernel(kernel, config)      # on disk only
    finally:
        trace.uninstall(installation)
        pipeline.clear_cache()
        cache_module._default_cache = saved
    names = [s[0] for s in tracer.spans if s[0].startswith("compiler.compile_kernel")]
    assert names == [
        "compiler.compile_kernel.cold",
        "compiler.compile_kernel.mem_hit",
        "compiler.compile_kernel.disk_hit",
    ]


class TestInstall:
    @staticmethod
    def _bindings():
        """``(module, key) -> object`` for every repro module attribute,
        class attribute and module-level dict value that is a target."""
        targets = {}
        for _, module_name, path in trace.TARGETS:
            owner, attr = trace._resolve(module_name, path)
            targets[(module_name, path)] = vars(owner)[attr]
        bindings = {}
        for module in trace._repro_modules():
            for key, value in vars(module).items():
                if callable(value) and hasattr(value, "__name__"):
                    bindings[(module.__name__, key)] = value
                elif isinstance(value, dict) and key != "__builtins__":
                    for inner, item in value.items():
                        if callable(item) and hasattr(item, "__name__"):
                            bindings[(module.__name__, key, inner)] = item
        return targets, bindings

    def test_install_then_uninstall_restores_identity(self):
        import importlib
        import sys

        import repro.api as api

        trace.preimport()
        targets, before = self._bindings()
        installation = trace.install(trace.Tracer())
        try:
            wrapped, during = self._bindings()
            for key, original in targets.items():
                assert wrapped[key] is not original
                assert wrapped[key].__wrapped__ is original
            assert api._RUNNERS[api.CostQuery] is api.run_cost_query
            assert during[("repro.api", "_RUNNERS", api.CostQuery)] \
                .__wrapped__ is targets[("repro.api", "run_cost_query")]
            # A module first imported while installed binds the wrapper.
            sys.modules.pop("repro.serve.daemon", None)
            daemon = importlib.import_module("repro.serve.daemon")
            assert daemon.execute is api.execute
        finally:
            trace.uninstall(installation)
        restored, after = self._bindings()
        assert restored == targets
        for key, value in before.items():
            if key[0] != "repro.serve.daemon":
                assert after[key] is value, key
        assert daemon.execute is targets[("repro.api", "execute")]

    def test_untraced_iteration_installs_nothing(self):
        import repro.api as api
        from bench.worker import Run

        original = api.execute
        seen = []
        run = Run({"workload": "probe", "seed": 1})
        run.iterate(lambda record: seen.append(api.execute is original),
                    traced=False)
        run.iterate(lambda record: seen.append(api.execute is original),
                    traced=True)
        assert seen == [True, False]
        assert api.execute is original
        assert "layers" not in run.iterations[0]
        assert run.iterations[1]["layers"]["api.execute.calls"] == 0


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    from bench.compare import compare

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_set(name, seconds):
        record = {"workload": "grid-model", "seed": 1, "seconds": seconds,
                  "trace": 0, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps(record) + "\n")
        return path

    assert compare(run_set("a", 20), run_set("b", 20), spec) == 0
    with pytest.raises(SystemExit, match="different --seconds"):
        compare(run_set("a", 20), run_set("b", 10), spec)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in trace.layer_names():
        assert {f"{name}.calls", f"{name}.self_s"} <= per_layer
    from bench.__main__ import end_to_end
    from bench.workloads import Outcome

    outcome = Outcome(setup=[1.0], walls=[1.0], latencies=[1.0])
    assert set(end_to_end(outcome)) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(
        __import__("bench.workloads", fromlist=["WORKLOADS"]).WORKLOADS
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
