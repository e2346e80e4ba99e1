"""The lazy per-operation timeline of a simulated run.

A simulated result's ``records`` is a :class:`~repro.sim.metrics.Timeline`
over the start and finish lists the timing loop fills.  These tests pin
it to the eager tuple of :class:`~repro.sim.metrics.OpRecord` s that
results carried before, through every way a result is read, compared,
hashed or pickled, and check that a run builds no record until one is
read.  Sweep points, memoized or returned from a worker process, are
evaluated without a timeline and must equal
:func:`~repro.analysis.model.predict_application`.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.model import predict_application
from repro.analysis.sweep import SweepEngine
from repro.apps.suite import get_application
from repro.core.config import ProcessorConfig
from repro.core.params import TECH_45NM
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.engine import evaluate, point_tables, program_summary
from repro.sim.metrics import OpRecord, Timeline
from repro.sim.processor import simulate

C8N5 = ProcessorConfig(8, 5)
#: qrd and fft4k spill at (8, 5), so their runs take the SRF loop;
#: fft1k and render take the spill-free one.
APPLICATIONS = ("fft1k", "render", "qrd", "fft4k")


def _timing(application, config=C8N5, timeline=True):
    """(summary, timing) of one plain evaluation of the recurrence."""
    summary = program_summary(application)
    point = point_tables(summary, config, TECH_45NM, 1.0)
    return summary, evaluate(summary, point, timeline=timeline)


def eager_records(application, config=C8N5):
    """The timeline as an eager tuple: kinds and labels read off the
    program's own operations, starts and finishes from one evaluation
    of the recurrence."""
    ops = get_application(application).ops
    _, timing = _timing(application, config)
    assert len(ops) == len(timing.starts) == len(timing.finishes)
    return tuple(
        OpRecord(i, type(op).__name__, op.describe, start, finish)
        for i, (op, start, finish) in enumerate(
            zip(ops, timing.starts, timing.finishes)
        )
    )


class TestEquivalence:
    def test_both_loops_are_covered(self):
        """The four applications exercise both evaluation loops."""
        spill_free = {}
        for application in APPLICATIONS:
            summary = program_summary(application)
            point = point_tables(summary, C8N5, TECH_45NM, 1.0)
            spill_free[application] = (
                point.ucode_fits
                and point.capacity >= summary.peak_resident_words
            )
        assert spill_free == {
            "fft1k": True, "render": True, "qrd": False, "fft4k": False,
        }

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_records_equal_the_eager_tuple(self, application):
        result = simulate(program_summary(application), C8N5)
        expected = eager_records(application)
        records = result.records
        n = len(expected)

        assert isinstance(records, Timeline)
        assert len(records) == n
        assert records == expected and expected == records
        assert not records != expected and not expected != records
        assert tuple(records) == expected          # iteration
        assert list(reversed(records)) == list(reversed(expected))
        for i in (0, 1, n // 2, n - 1, -1, -n):
            assert records[i] == expected[i]
        for window in (slice(None, 60), slice(5, -5, 3),
                       slice(None, None, -7), slice(n + 10, None)):
            assert type(records[window]) is tuple
            assert records[window] == expected[window]
        for outside in (n, -n - 1):
            with pytest.raises(IndexError):
                records[outside]
        assert hash(records) == hash(expected)
        assert expected[-1] in records
        assert records.index(expected[n // 2]) == n // 2

    def test_traced_metered_run_records_equal_the_eager_tuple(self):
        """A traced run takes the SRF loop even where a plain run takes
        the spill-free one; its timeline is the same."""
        result = simulate(
            get_application("fft1k"), C8N5,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        assert result.records == eager_records("fft1k")

    def test_timelines_compare_by_columns(self):
        summary = program_summary("qrd")
        a = simulate(summary, C8N5).records
        b = simulate(summary, C8N5).records
        other = simulate(summary, ProcessorConfig(16, 5)).records
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert a != tuple(other)
        assert a != eager_records("qrd")[:-1]
        assert a != list(a)                        # like a tuple
        assert repr(a) == f"<Timeline of {len(a)} stream ops>"

    def test_results_holding_eager_tuples_compare_equal(self):
        """A result unpickled from before timelines were lazy (records a
        tuple) equals a fresh one, in both directions."""
        fresh = simulate(program_summary("qrd"), C8N5)
        old = dataclasses.replace(fresh, records=eager_records("qrd"))
        assert old == fresh and fresh == old
        assert hash(old) == hash(fresh)


class TestRoundTrips:
    def test_pickle_carries_the_columns_only(self):
        result = simulate(program_summary("qrd"), C8N5)
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(data)
        assert restored == result
        assert isinstance(restored.records, Timeline)
        assert restored.records == eager_records("qrd")
        for name in (b"ProgramSummary", b"KernelGraph", b"Stream",
                     b"OpRecord"):
            assert name not in data
        eager = pickle.dumps(
            dataclasses.replace(result, records=tuple(result.records)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert len(data) < len(eager)


class TestLaziness:
    def test_warm_simulation_builds_no_records_until_read(
        self, monkeypatch
    ):
        summary = program_summary("qrd")
        simulate(summary, C8N5)  # warm the point tables and schedules
        built = []
        init = OpRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["index"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(OpRecord, "__init__", counting)
        result = simulate(summary, C8N5)
        records = result.records
        assert len(records) == summary.op_count
        assert built == []
        assert records[-1].index == summary.op_count - 1
        assert built == [summary.op_count - 1]
        assert sum(1 for _ in records) == summary.op_count
        assert len(built) == 1 + summary.op_count

    def test_untimed_run_has_no_records(self):
        summary, timing = _timing("fft1k", timeline=False)
        with pytest.raises(ValueError, match="timeline=True"):
            timing.records(summary)

    def test_analytical_results_have_no_timeline(self):
        """Nor do sweep points, whichever deprecated mode is named."""
        assert predict_application("qrd", C8N5).records == ()
        for mode in ("simulated", "analytical"):
            (result,) = SweepEngine().simulate_many(
                [("qrd", C8N5)], mode=mode
            )
            assert result.records == ()
