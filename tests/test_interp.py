"""Tests for the functional kernel interpreter."""

import numpy as np
import pytest

from repro.isa.interp import InterpreterError, KernelInterpreter
from repro.isa.kernel import KernelGraph
from repro.isa.ops import Opcode


def saxpy_kernel() -> KernelGraph:
    g = KernelGraph("saxpy")
    x = g.read("x")
    y = g.read("y")
    a = g.const(2.0, "a")
    g.write(g.op(Opcode.FADD, g.op(Opcode.FMUL, a, x), y), "out")
    return g


class TestBasicExecution:
    def test_saxpy_exact(self):
        interp = KernelInterpreter(saxpy_kernel(), clusters=4)
        xs = list(range(8))
        ys = [10.0] * 8
        out = interp.run({"x": xs, "y": ys})
        assert out["out"] == [2.0 * x + 10.0 for x in xs]

    def test_constant_override(self):
        interp = KernelInterpreter(
            saxpy_kernel(), clusters=2, constants={"a": 5.0}
        )
        out = interp.run({"x": [1.0, 2.0], "y": [0.0, 0.0]})
        assert out["out"] == [5.0, 10.0]

    def test_iterations_autodetected(self):
        interp = KernelInterpreter(saxpy_kernel(), clusters=4)
        out = interp.run({"x": [0.0] * 10, "y": [0.0] * 10})
        # 10 elements over 4 clusters = 2 full iterations.
        assert len(out["out"]) == 8

    def test_missing_stream_rejected(self):
        interp = KernelInterpreter(saxpy_kernel(), clusters=2)
        with pytest.raises(InterpreterError):
            interp.run({"x": [1.0, 2.0]})

    def test_missing_stream_rejected_with_explicit_iterations(self):
        g = KernelGraph("two_inputs")
        g.write(g.op(Opcode.FADD, g.read("x"), g.read("y")), "out")
        interp = KernelInterpreter(g, clusters=2)
        with pytest.raises(InterpreterError, match="missing input"):
            interp.run({"x": [1.0, 2.0]}, iterations=1)

    def test_zero_clusters_rejected(self):
        with pytest.raises(InterpreterError):
            KernelInterpreter(saxpy_kernel(), clusters=0)

    def test_multi_word_records(self):
        """Two reads of the same stream per iteration consume record
        pairs: cluster k of iteration i gets words (i*C+k)*2 and +1."""
        g = KernelGraph("pair_sum")
        a = g.read("pairs")
        b = g.read("pairs")
        g.write(g.op(Opcode.FADD, a, b), "sums")
        interp = KernelInterpreter(g, clusters=2)
        out = interp.run({"pairs": [1, 2, 3, 4, 5, 6, 7, 8]})
        assert out["sums"] == [3.0, 7.0, 11.0, 15.0]


class TestRaggedBatches:
    def test_explicit_iterations_pad_with_zero_at_two_clusters(self):
        """iterations= past the data reads 0.0 padding, also for the
        half of a record that is past the end."""
        g = KernelGraph("padded")
        a = g.read("x")
        b = g.read("x")  # R=2: the ragged tail splits mid-record
        g.write(g.op(Opcode.FADD, a, b), "out")
        interp = KernelInterpreter(g, clusters=2)
        data = [float(word) for word in range(1, 12)]  # 2 iterations + 3
        out = interp.run({"x": data}, iterations=4)
        assert out["out"] == [3.0, 7.0, 11.0, 15.0, 19.0, 11.0, 0.0, 0.0]

    @pytest.mark.parametrize("clusters", (1, 8, 128))
    def test_explicit_iterations_pad_with_zero(self, clusters):
        g = KernelGraph("padded")
        a = g.read("x")
        b = g.read("x")
        g.write(g.op(Opcode.FADD, a, b), "out")
        data = [float(word) for word in range(1, 4 * clusters + 4)]
        out = KernelInterpreter(g, clusters=clusters).run(
            {"x": data}, iterations=5
        )["out"]
        padded = data + [0.0] * (10 * clusters - len(data))
        assert out == [
            padded[2 * record] + padded[2 * record + 1]
            for record in range(5 * clusters)
        ]
        split = 2 * clusters + 1  # its second word is past the end
        assert out[split] == data[-1]
        assert out[-1] == 0.0

    def test_loopvar_with_no_stream(self):
        """A kernel with no unconditional input runs for iterations=."""
        g = KernelGraph("generator")
        i = g.loop_index()
        g.write(g.op(Opcode.FMUL, i, g.const(2.0, "two")), "out")
        interp = KernelInterpreter(g, clusters=4)
        out = interp.run({}, iterations=3)
        assert out["out"] == [0.0] * 4 + [2.0] * 4 + [4.0] * 4
        with pytest.raises(InterpreterError, match="iterations="):
            interp.run({})


class TestCommunication:
    def test_comm_perm_rotates_left(self):
        g = KernelGraph("rotate")
        v = g.read("in")
        g.write(g.comm(v), "out")
        interp = KernelInterpreter(g, clusters=4)
        out = interp.run({"in": [10.0, 20.0, 30.0, 40.0]})
        assert out["out"] == [20.0, 30.0, 40.0, 10.0]

    def test_comm_bcast_copies_cluster_zero(self):
        g = KernelGraph("bcast")
        v = g.read("in")
        g.write(g.op(Opcode.COMM_BCAST, v), "out")
        interp = KernelInterpreter(g, clusters=4)
        out = interp.run({"in": [7.0, 1.0, 2.0, 3.0]})
        assert out["out"] == [7.0] * 4

    @pytest.mark.parametrize("clusters", (1, 8, 128))
    def test_rotate_and_broadcast_at_width(self, clusters):
        g = KernelGraph("routing")
        v = g.read("in")
        g.write(g.comm(v), "rotated")
        g.write(g.op(Opcode.COMM_BCAST, v), "broadcast")
        data = [float(word) for word in range(2 * clusters)]
        out = KernelInterpreter(g, clusters=clusters).run({"in": data})
        for start in (0, clusters):
            batch = data[start : start + clusters]
            rotated = out["rotated"][start : start + clusters]
            assert rotated == batch[1:] + batch[:1]
            broadcast = out["broadcast"][start : start + clusters]
            assert broadcast == [batch[0]] * clusters

    def test_allreduce_via_comm_ring(self):
        """C-1 rotate-and-add steps compute the cross-cluster sum in
        every cluster (how Update's dot-product reduction works)."""
        clusters = 4
        g = KernelGraph("allreduce")
        value = g.read("in")
        total = value
        rotated = value
        for _ in range(clusters - 1):
            rotated = g.comm(rotated)
            total = g.op(Opcode.FADD, total, rotated)
        g.write(total, "out")
        interp = KernelInterpreter(g, clusters=clusters)
        out = interp.run({"in": [1.0, 2.0, 3.0, 4.0]})
        # Ring allreduce with C-1 steps gives every cluster the sum.
        assert out["out"] == [10.0] * 4


class TestScratchpad:
    def test_table_lookup(self):
        g = KernelGraph("lookup")
        idx = g.read("indices")
        g.write(g.sp_read(idx, "lut"), "out")
        interp = KernelInterpreter(g, clusters=2)
        interp.preload_scratchpad([100.0, 200.0, 300.0, 400.0])
        out = interp.run({"indices": [0, 3, 2, 1]})
        assert out["out"] == [100.0, 400.0, 300.0, 200.0]

    def test_gather_outside_the_table_reads_zero(self):
        g = KernelGraph("lookup")
        idx = g.read("indices")
        g.write(g.sp_read(idx, "lut"), "out")
        interp = KernelInterpreter(g, clusters=2)
        interp.preload_scratchpad([100.0, 200.0, 300.0, 400.0])
        out = interp.run({"indices": [0.0, 3.0, -2.0, 99.0]})
        assert out["out"] == [100.0, 400.0, 0.0, 0.0]

    def test_negative_address_write_is_kept(self):
        g = KernelGraph("neg_addr")
        v = g.read("in")
        g.sp_write(g.const(-1.0, "addr"), v)
        g.write(v, "out")
        interp = KernelInterpreter(g, clusters=2)
        assert interp.run({"in": [1.0, 2.0, 3.0, 4.0]})["out"] == [
            1.0, 2.0, 3.0, 4.0,
        ]
        assert interp.states[0].scratchpad[-1] == 3.0
        assert interp.states[1].scratchpad[-1] == 4.0

    def test_scratchpads_are_per_cluster(self):
        g = KernelGraph("local_state")
        v = g.read("in")
        addr = g.const(0.0, "c0")
        g.sp_write(addr, v)
        g.write(g.sp_read(addr), "out")
        interp = KernelInterpreter(g, clusters=2)
        out = interp.run({"in": [5.0, 9.0]})
        # Each cluster reads back its own write, not its neighbor's.
        assert out["out"] == [5.0, 9.0]


class TestRecurrences:
    def test_running_accumulator(self):
        g = KernelGraph("accumulate")
        x = g.read("in")
        acc = g.op(Opcode.FADD, x, name="acc")
        g.recurrence(acc, acc, distance=1)
        g.write(acc, "out")
        interp = KernelInterpreter(g, clusters=2)
        out = interp.run({"in": [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]})
        # Cluster 0 sees 1,2,3; cluster 1 sees 10,20,30.
        assert out["out"] == [1.0, 10.0, 3.0, 30.0, 6.0, 60.0]


class TestStateAcrossRuns:
    """Consecutive run() calls on one interpreter continue from the
    scratchpads and loop-carried values the previous call left."""

    def test_scratchpad_histogram(self):
        g = KernelGraph("histogram")
        bucket = g.read("buckets")
        count = g.sp_read(bucket)
        g.sp_write(bucket, g.op(Opcode.FADD, count, g.const(1.0, "one")))
        g.write(count, "before")
        interp = KernelInterpreter(g, clusters=2)
        buckets = [0.0, 1.0, 0.0, 0.0]  # cluster 0: 0, 0; cluster 1: 1, 0
        assert interp.run({"buckets": buckets})["before"] == [
            0.0, 0.0, 1.0, 0.0,
        ]
        assert interp.run({"buckets": buckets})["before"] == [
            2.0, 1.0, 3.0, 1.0,
        ]

    def test_carried_accumulator_at_two_clusters(self):
        g = KernelGraph("accumulate")
        x = g.read("in")
        acc = g.op(Opcode.FADD, x, name="acc")
        g.recurrence(acc, acc, distance=1)
        g.write(acc, "out")
        interp = KernelInterpreter(g, clusters=2)
        data = [1.0, 10.0, 2.0, 20.0]
        assert interp.run({"in": data})["out"] == [1.0, 10.0, 3.0, 30.0]
        assert interp.run({"in": data})["out"] == [4.0, 40.0, 6.0, 60.0]

    @pytest.mark.parametrize("clusters", (1, 8, 128))
    def test_carried_accumulator(self, clusters):
        g = KernelGraph("accumulate")
        x = g.read("in")
        acc = g.op(Opcode.FADD, x, name="acc")
        g.recurrence(acc, acc, distance=1)
        g.write(acc, "out")
        interp = KernelInterpreter(g, clusters=clusters)
        data = [float(word) for word in range(5 * clusters)]
        totals = [0.0] * clusters
        for _ in range(2):
            expected = []
            for start in range(0, len(data), clusters):
                for k in range(clusters):
                    totals[k] += data[start + k]
                expected.extend(totals)
            assert interp.run({"in": data})["out"] == expected


class TestConditionalStreams:
    def test_conditional_write_compacts(self):
        g = KernelGraph("filter")
        v = g.read("in")
        keep = g.op(Opcode.FCMP, v, g.const(10.0, "c10"))  # v < 10
        g.write(g.op(Opcode.SELECT, keep, v), "out", conditional=True)
        interp = KernelInterpreter(g, clusters=4)
        out = interp.run({"in": [3.0, 50.0, 7.0, 99.0, 60.0, 1.0, 2.0, 4.0]})
        assert out["out"] == [3.0, 7.0, 1.0, 2.0, 4.0]

    def test_mixed_writers_interleave_in_node_order(self):
        """Per iteration, each writer to one stream emits in node order:
        all clusters' unconditional words, then the kept conditional
        ones."""
        g = KernelGraph("mixed")
        v = g.read("in")
        g.write(v, "out")
        g.op(Opcode.FCMP, v, g.const(0.5, "thresh"))  # v < 0.5 is kept
        g.write(g.op(Opcode.FMUL, v, g.const(10.0, "ten")), "out",
                conditional=True)
        interp = KernelInterpreter(g, clusters=2)
        out = interp.run({"in": [0.25, 0.75, 0.875, 0.125]})
        assert out["out"] == [0.25, 0.75, 2.5, 0.875, 0.125, 1.25]

    def test_two_unconditional_writers(self):
        g = KernelGraph("two_writers")
        v = g.read("in")
        g.write(v, "out")
        g.write(g.op(Opcode.FADD, v, g.const(1.0, "one")), "out")
        interp = KernelInterpreter(g, clusters=4)
        data = [float(word) for word in range(12)]
        out = interp.run({"in": data})["out"]
        assert len(out) == 24
        assert out == [
            word
            for start in (0, 4, 8)
            for word in data[start : start + 4]
            + [x + 1.0 for x in data[start : start + 4]]
        ]


class TestNumericalValidation:
    def test_fir_matches_numpy(self):
        """A 3-tap FIR built with the kernel API, run with 1 cluster,
        equals numpy's convolution."""
        taps = [0.25, 0.5, 0.25]
        g = KernelGraph("fir3")
        window = [g.read("samples") for _ in range(3)]
        products = [
            g.op(Opcode.FMUL, window[t], g.const(taps[t], f"t{t}"))
            for t in range(3)
        ]
        g.write(g.reduce(Opcode.FADD, products), "filtered")
        constants = {f"t{t}": taps[t] for t in range(3)}
        interp = KernelInterpreter(g, clusters=1, constants=constants)

        rng = np.random.default_rng(7)
        signal = rng.normal(size=30)
        # Feed overlapping 3-windows (records) explicitly.
        records = []
        for i in range(len(signal) - 2):
            records.extend(signal[i : i + 3])
        out = interp.run({"samples": records})
        expected = np.convolve(signal, taps[::-1], mode="valid")
        assert np.allclose(out["filtered"], expected)

    def test_suite_kernels_execute(self):
        """Every Table 2/4 kernel runs functionally without error (their
        numeric outputs are exercised, not checked against a reference —
        the suite graphs are op-mix-faithful reconstructions)."""
        from repro.kernels import PERFORMANCE_SUITE, get_kernel

        for name in PERFORMANCE_SUITE:
            kernel = get_kernel(name)
            interp = KernelInterpreter(kernel, clusters=4)
            interp.preload_scratchpad([1.0] * 64)
            inputs = {}
            for stream in kernel.input_streams():
                inputs[stream] = [1.0] * 512
            outputs = interp.run(inputs, iterations=2)
            assert outputs, name
