"""Unit tests for the user-kernel frontend (schema/loader/registry).

The conformance corpus lives in ``test_frontend_conformance.py`` and
the generative fuzz wall in ``test_frontend_fuzz.py``; this module
pins the typed-error contract (every code, with its JSON pointer), the
canonical form, the content-addressed registry, the microbenchmark
wrapper, and the API/CLI surfaces.
"""

import json

import pytest

from repro.frontend import (
    ERROR_CODES,
    KERNEL_SCHEMA_VERSION,
    SANDBOX_LIMITS,
    KernelRegistry,
    KernelValidationError,
    SandboxLimits,
    canonical_json,
    canonicalize_document,
    document_from_graph,
    document_hash,
    graph_from_document,
    is_kernel_ref,
    load_document,
    microbench_program,
)
from repro.frontend.loader import parse_document
from repro.frontend.registry import (
    configure_default_registry,
    default_registry,
    summarize,
)
from repro.frontend.schema import json_pointer


def saxpy_document():
    """The schema docstring's example kernel: out = 2*x per element."""
    return {
        "schema_version": KERNEL_SCHEMA_VERSION,
        "name": "saxpy",
        "nodes": [
            {"op": "sb_read", "stream": "x"},
            {"op": "const", "value": 2.0},
            {"op": "fmul", "args": [0, 1]},
            {"op": "sb_write", "args": [2], "stream": "out"},
        ],
    }


def rejection(document, limits=SANDBOX_LIMITS):
    with pytest.raises(KernelValidationError) as info:
        parse_document(document, limits)
    return info.value


@pytest.fixture()
def registry(tmp_path):
    """Point the process-default registry at a throwaway directory."""
    registry = configure_default_registry(tmp_path / "kernels")
    yield registry
    configure_default_registry(enabled=False)


class TestSchema:
    def test_json_pointer_escaping(self):
        assert json_pointer() == ""
        assert json_pointer("nodes", 3, "op") == "/nodes/3/op"
        assert json_pointer("a/b", "c~d") == "/a~1b/c~0d"

    def test_error_renders_code_and_pointer(self):
        err = KernelValidationError("E_ARITY", "/nodes/2/args", "boom")
        assert str(err) == "E_ARITY at /nodes/2/args: boom"
        assert err.to_dict() == {
            "code": "E_ARITY",
            "pointer": "/nodes/2/args",
            "message": "boom",
        }

    def test_root_pointer_renders_as_slash(self):
        err = KernelValidationError("E_DOC_TYPE", "", "boom")
        assert "at /:" in str(err)

    def test_every_error_code_is_described(self):
        assert all(desc for desc in ERROR_CODES.values())

    def test_limits_to_dict_round_trips(self):
        limits = SandboxLimits()
        assert limits.to_dict()["max_nodes"] == limits.max_nodes
        assert set(limits.to_dict()) == {
            "max_nodes", "max_recurrences", "max_recurrence_distance",
            "max_streams", "max_name_length", "max_const_magnitude",
        }


class TestDocumentRejections:
    """One test per error code: code AND pointer are the contract."""

    def test_document_must_be_an_object(self):
        err = rejection([1, 2, 3])
        assert (err.code, err.pointer) == ("E_DOC_TYPE", "")

    def test_unknown_top_level_field(self):
        doc = saxpy_document()
        doc["extra"] = 1
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_UNKNOWN", "/extra")

    def test_missing_schema_version(self):
        doc = saxpy_document()
        del doc["schema_version"]
        assert rejection(doc).code == "E_VERSION"

    def test_boolean_schema_version(self):
        doc = saxpy_document()
        doc["schema_version"] = True
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_VERSION", "/schema_version")

    def test_unsupported_schema_version(self):
        doc = saxpy_document()
        doc["schema_version"] = KERNEL_SCHEMA_VERSION + 1
        assert rejection(doc).code == "E_VERSION"

    def test_missing_name(self):
        doc = saxpy_document()
        del doc["name"]
        assert rejection(doc).code == "E_FIELD_MISSING"

    def test_non_string_name(self):
        doc = saxpy_document()
        doc["name"] = 7
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_TYPE", "/name")

    @pytest.mark.parametrize("name", ["", "x" * 65, "bad\nname"])
    def test_invalid_names(self, name):
        doc = saxpy_document()
        doc["name"] = name
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_NAME_INVALID", "/name")

    def test_missing_nodes(self):
        doc = saxpy_document()
        del doc["nodes"]
        assert rejection(doc).code == "E_FIELD_MISSING"

    def test_nodes_not_a_list(self):
        doc = saxpy_document()
        doc["nodes"] = {}
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_TYPE", "/nodes")

    def test_empty_nodes(self):
        doc = saxpy_document()
        doc["nodes"] = []
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_MISSING", "/nodes")

    def test_node_limit(self):
        err = rejection(saxpy_document(), SandboxLimits(max_nodes=3))
        assert (err.code, err.pointer) == ("E_LIMIT_OPS", "/nodes")

    def test_node_must_be_an_object(self):
        doc = saxpy_document()
        doc["nodes"][0] = "sb_read"
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_DOC_TYPE", "/nodes/0")

    def test_unknown_node_field(self):
        doc = saxpy_document()
        doc["nodes"][2]["bogus"] = 1
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_UNKNOWN", "/nodes/2/bogus",
        )

    def test_missing_op(self):
        doc = saxpy_document()
        del doc["nodes"][0]["op"]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_MISSING", "/nodes/0")

    def test_non_string_op(self):
        doc = saxpy_document()
        doc["nodes"][0]["op"] = 5
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_TYPE", "/nodes/0/op")

    def test_unknown_op(self):
        doc = saxpy_document()
        doc["nodes"][2]["op"] = "fmac"
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_OP_UNKNOWN", "/nodes/2/op")

    def test_args_not_a_list(self):
        doc = saxpy_document()
        doc["nodes"][2]["args"] = 0
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_TYPE", "/nodes/2/args")

    def test_boolean_arg_is_not_an_index(self):
        doc = saxpy_document()
        doc["nodes"][2]["args"] = [True, 1]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_TYPE", "/nodes/2/args/0",
        )

    @pytest.mark.parametrize("arg", [-1, 2, 99])
    def test_operand_range(self, arg):
        doc = saxpy_document()
        doc["nodes"][2]["args"] = [arg, 1]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_OPERAND_RANGE", "/nodes/2/args/0",
        )

    @pytest.mark.parametrize(
        "index,args",
        [(1, [0]), (2, []), (2, [0, 1, 1]), (3, [])],
    )
    def test_arity(self, index, args):
        doc = saxpy_document()
        doc["nodes"][index]["args"] = args
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_ARITY", f"/nodes/{index}/args",
        )

    def test_const_missing_value(self):
        doc = saxpy_document()
        del doc["nodes"][1]["value"]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_CONST_VALUE", "/nodes/1")

    @pytest.mark.parametrize(
        "value", [True, "2.0", None, float("inf"), float("nan"), 1e31]
    )
    def test_const_bad_values(self, value):
        doc = saxpy_document()
        doc["nodes"][1]["value"] = value
        assert rejection(doc).code == "E_CONST_VALUE"

    def test_value_only_on_const(self):
        doc = saxpy_document()
        doc["nodes"][2]["value"] = 1.0
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_UNKNOWN", "/nodes/2/value",
        )

    def test_stream_op_missing_stream(self):
        doc = saxpy_document()
        del doc["nodes"][0]["stream"]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_STREAM_INVALID", "/nodes/0")

    def test_stream_only_on_stream_ops(self):
        doc = saxpy_document()
        doc["nodes"][2]["stream"] = "y"
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_STREAM_INVALID", "/nodes/2/stream",
        )

    def test_stream_ops_take_no_name(self):
        doc = saxpy_document()
        doc["nodes"][0]["name"] = "alias"
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_UNKNOWN", "/nodes/0/name",
        )

    def test_bad_node_name(self):
        doc = saxpy_document()
        doc["nodes"][2]["name"] = "\x01"
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_NAME_INVALID", "/nodes/2/name",
        )

    def test_stream_limit(self):
        err = rejection(saxpy_document(), SandboxLimits(max_streams=1))
        assert (err.code, err.pointer) == ("E_LIMIT_STREAMS", "/nodes")

    def test_no_alu_work(self):
        doc = saxpy_document()
        doc["nodes"] = [
            {"op": "sb_read", "stream": "x"},
            {"op": "sb_write", "args": [0], "stream": "out"},
        ]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_NO_ALU", "/nodes")

    def test_no_output_stream(self):
        doc = saxpy_document()
        doc["nodes"] = [
            {"op": "sb_read", "stream": "x"},
            {"op": "iadd", "args": [0]},
        ]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_NO_OUTPUT", "/nodes")

    def test_recurrences_not_a_list(self):
        doc = saxpy_document()
        doc["recurrences"] = {}
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_FIELD_TYPE", "/recurrences")

    def test_recurrence_limit(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2, "target": 2, "distance": 1}]
        err = rejection(doc, SandboxLimits(max_recurrences=0))
        assert (err.code, err.pointer) == (
            "E_LIMIT_RECURRENCES", "/recurrences",
        )

    def test_recurrence_must_be_an_object(self):
        doc = saxpy_document()
        doc["recurrences"] = [3]
        err = rejection(doc)
        assert (err.code, err.pointer) == ("E_DOC_TYPE", "/recurrences/0")

    def test_unknown_recurrence_field(self):
        doc = saxpy_document()
        doc["recurrences"] = [
            {"source": 2, "target": 2, "distance": 1, "why": "x"}
        ]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_UNKNOWN", "/recurrences/0/why",
        )

    def test_recurrence_missing_field(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2, "target": 2}]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_MISSING", "/recurrences/0",
        )

    def test_recurrence_non_integer_field(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2.5, "target": 2, "distance": 1}]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_FIELD_TYPE", "/recurrences/0/source",
        )

    def test_recurrence_endpoint_out_of_range(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 9, "target": 2, "distance": 1}]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_RECURRENCE_INVALID", "/recurrences/0/source",
        )

    def test_recurrence_distance_must_be_positive(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2, "target": 2, "distance": 0}]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_RECURRENCE_INVALID", "/recurrences/0/distance",
        )

    def test_recurrence_distance_limit(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2, "target": 2, "distance": 65}]
        err = rejection(doc)
        assert (err.code, err.pointer) == (
            "E_LIMIT_DISTANCE", "/recurrences/0/distance",
        )


class TestCanonicalForm:
    def test_canonicalize_is_a_fixed_point(self):
        once = canonicalize_document(saxpy_document())
        twice = canonicalize_document(once)
        assert canonical_json(once) == canonical_json(twice)

    def test_serialize_parse_serialize_is_identity(self):
        canonical = canonical_json(canonicalize_document(saxpy_document()))
        reparsed = canonicalize_document(json.loads(canonical))
        assert canonical_json(reparsed) == canonical

    def test_hash_invariant_to_spelling(self):
        doc = saxpy_document()
        respelled = {
            "name": "saxpy",
            "nodes": [
                {"stream": "x", "op": "sb_read", "args": []},
                {"op": "const", "value": 2},
                {"op": "fmul", "args": [0, 1]},
                {"stream": "out", "op": "sb_write", "args": [2]},
            ],
            "recurrences": [],
            "schema_version": KERNEL_SCHEMA_VERSION,
        }
        assert (
            load_document(doc).kernel_id
            == load_document(respelled).kernel_id
        )

    def test_canonical_form_drops_empty_collections(self):
        doc = saxpy_document()
        doc["recurrences"] = []
        doc["nodes"][0]["args"] = []
        canonical = canonicalize_document(doc)
        assert "recurrences" not in canonical
        assert "args" not in canonical["nodes"][0]

    def test_document_hash_matches_load(self):
        canonical = canonicalize_document(saxpy_document())
        assert document_hash(canonical) == load_document(canonical).kernel_id


class TestGraphCompilation:
    def test_graph_matches_hand_built(self):
        from repro.isa.kernel import KernelGraph
        from repro.isa.ops import Opcode

        loaded = graph_from_document(saxpy_document())
        hand = KernelGraph("saxpy")
        x = hand.read("x")
        hand.write(hand.op(Opcode.FMUL, x, hand.const(2.0)), "out")
        assert [n.opcode for n in loaded.nodes] == [
            n.opcode for n in hand.nodes
        ]
        assert [n.operands for n in loaded.nodes] == [
            n.operands for n in hand.nodes
        ]
        assert loaded.input_streams() == ["x"]
        assert loaded.output_streams() == ["out"]

    def test_export_import_export_is_identity(self):
        graph = graph_from_document(saxpy_document())
        exported = document_from_graph(graph)
        again = document_from_graph(graph_from_document(exported))
        assert canonical_json(exported) == canonical_json(again)

    def test_recurrence_round_trips(self):
        doc = saxpy_document()
        doc["recurrences"] = [{"source": 2, "target": 2, "distance": 3}]
        graph = graph_from_document(doc)
        assert len(graph.recurrences) == 1
        rec = graph.recurrences[0]
        assert (rec.source, rec.target, rec.distance) == (2, 2, 3)
        exported = document_from_graph(graph)
        assert exported["recurrences"] == doc["recurrences"]

    def test_loaded_kernel_carries_name_and_id(self):
        loaded = load_document(saxpy_document())
        assert loaded.name == "saxpy"
        assert loaded.kernel_id == document_hash(loaded.document)
        assert len(loaded.kernel_id) == 64


class TestRegistry:
    def test_register_is_idempotent(self, tmp_path):
        registry = KernelRegistry(tmp_path)
        first = registry.register(saxpy_document())
        second = registry.register(saxpy_document())
        assert first.kernel_id == second.kernel_id
        assert registry.registrations == 2
        assert registry.writes == 1
        assert first.ref == f"kernel:{first.kernel_id}"
        assert first.name == "saxpy"

    def test_persists_across_instances(self, tmp_path):
        ref = KernelRegistry(tmp_path).register(saxpy_document()).ref
        fresh = KernelRegistry(tmp_path)
        entry = fresh.resolve(ref)
        assert entry.name == "saxpy"
        assert fresh.graph(ref).input_streams() == ["x"]

    def test_memory_only_registry_works(self):
        registry = KernelRegistry(None)
        assert not registry.enabled
        ref = registry.register(saxpy_document()).ref
        assert registry.resolve(ref).name == "saxpy"
        assert registry.writes == 0

    @pytest.mark.parametrize(
        "ref",
        [
            "saxpy",
            "kernel:",
            "kernel:short",
            "kernel:XYZ45678",
            "kernel:" + "a" * 65,
        ],
    )
    def test_malformed_refs(self, tmp_path, ref):
        with pytest.raises(KeyError):
            KernelRegistry(tmp_path).resolve(ref)

    def test_unknown_ref(self, tmp_path):
        with pytest.raises(KeyError, match="register it first"):
            KernelRegistry(tmp_path).resolve("kernel:" + "0" * 64)

    def test_prefix_resolution(self, tmp_path):
        registry = KernelRegistry(tmp_path)
        entry = registry.register(saxpy_document())
        short = f"kernel:{entry.kernel_id[:12]}"
        assert registry.resolve(short).kernel_id == entry.kernel_id
        # And from a cold instance (disk glob, not the memory overlay).
        assert KernelRegistry(tmp_path).resolve(short).name == "saxpy"

    def test_ambiguous_prefix(self, tmp_path):
        registry = KernelRegistry(tmp_path)
        document = load_document(saxpy_document()).document
        registry._memory["ab" * 32] = document
        registry._memory["ab" * 4 + "f" * 56] = document
        with pytest.raises(KeyError, match="ambiguous"):
            registry.resolve("kernel:" + "ab" * 4)

    def test_corrupt_entry_is_evicted(self, tmp_path):
        registry = KernelRegistry(tmp_path)
        kernel_id = registry.register(saxpy_document()).kernel_id
        path = registry._path(kernel_id)
        path.write_text("{not json")
        cold = KernelRegistry(tmp_path)
        assert cold.get_document(kernel_id) is None
        assert cold.evictions == 1
        assert not path.exists()

    def test_tampered_document_is_evicted(self, tmp_path):
        """A re-checksummed but content-modified entry still dies: the
        document no longer hashes to its address."""
        from repro.frontend.registry import _payload_checksum

        registry = KernelRegistry(tmp_path)
        kernel_id = registry.register(saxpy_document()).kernel_id
        path = registry._path(kernel_id)
        payload = json.loads(path.read_text())
        payload["document"]["nodes"][1]["value"] = 3.0
        del payload["checksum"]
        payload["checksum"] = _payload_checksum(payload)
        path.write_text(json.dumps(payload))
        cold = KernelRegistry(tmp_path)
        assert cold.get_document(kernel_id) is None
        assert cold.evictions == 1

    def test_graph_is_memoized(self, tmp_path):
        registry = KernelRegistry(tmp_path)
        ref = registry.register(saxpy_document()).ref
        assert registry.graph(ref) is registry.graph(ref)

    def test_list_includes_disk_entries(self, tmp_path):
        KernelRegistry(tmp_path).register(saxpy_document())
        summaries = KernelRegistry(tmp_path).list()
        assert [s["name"] for s in summaries] == ["saxpy"]
        assert summaries[0]["alu_ops"] == 1

    def test_summarize_shape(self):
        loaded = load_document(saxpy_document())
        summary = summarize(loaded.kernel_id, loaded.document)
        assert summary == {
            "kernel_id": loaded.kernel_id,
            "ref": f"kernel:{loaded.kernel_id}",
            "name": "saxpy",
            "schema_version": KERNEL_SCHEMA_VERSION,
            "nodes": 4,
            "alu_ops": 1,
            "srf_accesses": 2,
            "comms": 0,
            "sp_accesses": 0,
            "input_streams": ["x"],
            "output_streams": ["out"],
        }

    def test_is_kernel_ref(self):
        assert is_kernel_ref("kernel:abc")
        assert not is_kernel_ref("fft")
        assert not is_kernel_ref(7)

    def test_environment_disables_persistence(self, monkeypatch):
        from repro.frontend.registry import _default_root

        monkeypatch.setenv("REPRO_KERNEL_REGISTRY", "off")
        assert _default_root() is None
        monkeypatch.setenv("REPRO_KERNEL_REGISTRY", "")
        monkeypatch.setenv("REPRO_KERNEL_REGISTRY_DIR", "/tmp/somewhere")
        assert str(_default_root()) == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_KERNEL_REGISTRY_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert str(_default_root()) == "/tmp/xdg/repro-stream/kernels"

    def test_default_registry_is_process_wide(self, registry):
        assert default_registry() is registry
        ref = registry.register(saxpy_document()).ref
        from repro.frontend.registry import resolve_registered_graph

        assert resolve_registered_graph(ref).name == "saxpy"

    def test_suite_hooks_resolve_references(self, registry):
        from repro.apps.suite import get_application
        from repro.kernels.suite import get_kernel

        ref = registry.register(saxpy_document()).ref
        assert get_kernel(ref) is registry.graph(ref)
        program = get_application(ref)
        assert program.kernel_calls()


class TestMicrobench:
    def test_batches_fit_the_smallest_grid_config(self, registry):
        from repro.frontend.bench import _BATCH_SRF_BUDGET_WORDS
        from repro.kernels.suite import get_kernel

        program = microbench_program("kernel:x", get_kernel("fft"))
        for stream in program.streams:
            assert (
                stream.elements * stream.record_words
                <= _BATCH_SRF_BUDGET_WORDS
            )

    def test_total_work_is_preserved(self):
        from repro.frontend.bench import KERNEL_BENCH_WORK_ITEMS
        from repro.kernels.suite import get_kernel

        program = microbench_program("kernel:x", get_kernel("fft"))
        calls = program.kernel_calls()
        assert len(calls) > 1  # fft (64 words/iter) must strip-mine
        assert sum(c.work_items for c in calls) == KERNEL_BENCH_WORK_ITEMS

    def test_batch_items_bounds(self):
        from repro.frontend.bench import _batch_items

        assert _batch_items(1, 4096) == 4096
        assert _batch_items(2, 4096) == 4096
        assert _batch_items(64, 4096) == 128
        assert _batch_items(10_000, 4096) == 1

    def test_microbench_simulates_on_the_smallest_config(self):
        from repro.core.config import ProcessorConfig
        from repro.sim.processor import simulate

        graph = graph_from_document(saxpy_document())
        program = microbench_program("kernel:x", graph, work_items=512)
        result = simulate(program, ProcessorConfig(8, 2))
        assert result.cycles > 0
        assert result.useful_alu_ops == 512


class TestApiSurface:
    def test_register_request_round_trips(self, registry):
        from repro.api import (
            RegisterKernelRequest,
            dedup_key,
            execute,
            request_from_dict,
            run_register,
        )

        request = RegisterKernelRequest(saxpy_document())
        rebuilt = request_from_dict("kernels", request.to_dict())
        assert dedup_key(rebuilt) == dedup_key(request)
        result = run_register(request)
        loaded = load_document(saxpy_document())
        assert result.kernel_id == loaded.kernel_id
        assert result.ref == f"kernel:{loaded.kernel_id}"
        assert result.name == "saxpy"
        assert result.nodes == 4
        assert result.input_streams == ("x",)  # API tuples
        assert execute(request) == result

    def test_invalid_document_is_a_typed_api_error(self, registry):
        from repro.api import ApiError, RegisterKernelRequest, run_register

        with pytest.raises(ApiError, match="E_OP_UNKNOWN"):
            run_register(
                RegisterKernelRequest(
                    {
                        "schema_version": 1,
                        "name": "bad",
                        "nodes": [{"op": "nope"}],
                    }
                )
            )
        with pytest.raises(ApiError, match="non-empty JSON object"):
            run_register(RegisterKernelRequest({}))

    def test_compile_by_reference_matches_builtin(self, registry):
        from repro.api import CompileRequest, run_compile
        from repro.frontend import document_from_graph
        from repro.kernels.suite import get_kernel

        ref = registry.register(
            document_from_graph(get_kernel("blocksad"))
        ).ref
        by_ref = run_compile(CompileRequest(ref, 8, 5)).to_dict()
        builtin = run_compile(CompileRequest("blocksad", 8, 5)).to_dict()
        assert by_ref.pop("kernel") == ref
        assert builtin.pop("kernel") == "blocksad"
        assert by_ref == builtin

    def test_unregistered_reference_is_rejected(self, registry):
        from repro.api import (
            ApiError,
            CompileRequest,
            SimulateRequest,
            SweepRequest,
            validate_request,
        )

        missing = "kernel:" + "0" * 64
        with pytest.raises(ApiError, match="register it first"):
            validate_request(CompileRequest(missing, 8, 5))
        with pytest.raises(ApiError, match="register it first"):
            validate_request(SimulateRequest(missing, 8, 5))
        with pytest.raises(ApiError, match="register it first"):
            validate_request(SweepRequest("fig13", kernel=missing))

    def test_simulating_a_reference_accepts_the_analytical_alias(
        self, registry
    ):
        """``mode`` is a deprecated alias with no effect, for registered
        kernels as for the built-in applications."""
        from repro.api import SimulateRequest, execute

        ref = registry.register(saxpy_document()).ref
        for clusters, alus in ((8, 5), (128, 14)):
            default = execute(SimulateRequest(ref, clusters, alus))
            alias = execute(
                SimulateRequest(ref, clusters, alus, mode="analytical")
            )
            assert alias.to_json() == default.to_json()

    def test_sweep_kernel_field_validation(self, registry):
        from repro.api import ApiError, SweepRequest, validate_request

        validate_request(SweepRequest("fig13", kernel="fft"))
        with pytest.raises(ApiError):
            validate_request(SweepRequest("fig13", kernel=7))
        with pytest.raises(ApiError):
            validate_request(SweepRequest("fig15", kernel="fft"))
        with pytest.raises(ApiError, match="unknown kernel"):
            validate_request(SweepRequest("fig13", kernel="nope"))


class TestCli:
    def test_kernel_register_list_show(self, registry, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "saxpy.json"
        path.write_text(json.dumps(saxpy_document()))
        assert main(["kernel", "register", str(path)]) == 0
        out = capsys.readouterr().out
        assert "registered kernel 'saxpy'" in out
        assert "kernel:" in out

        assert main(["kernel", "list"]) == 0
        assert "saxpy" in capsys.readouterr().out

        assert main(["kernel", "register", str(path), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        ref = envelope["data"]["ref"]
        assert envelope["data"]["name"] == "saxpy"

        assert main(["kernel", "show", ref[len("kernel:"):][:12]]) == 0
        out = capsys.readouterr().out
        assert "saxpy" in out and "sb_read" in out

        assert main(["kernel", "show", ref, "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["data"]["document"]["name"] == "saxpy"

    def test_kernel_register_failures(self, registry, tmp_path, capsys):
        from repro.cli import main

        assert main(["kernel", "register", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["kernel", "register", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"schema_version": 1}))
        assert main(["kernel", "register", str(invalid)]) == 2
        assert "E_FIELD_MISSING" in capsys.readouterr().err

    def test_kernel_show_unknown(self, registry, capsys):
        from repro.cli import main

        assert main(["kernel", "show", "0" * 64]) == 2
        assert "register it first" in capsys.readouterr().err

    def test_kernel_list_empty(self, registry, capsys):
        from repro.cli import main

        assert main(["kernel", "list"]) == 0
        assert "no registered kernels" in capsys.readouterr().out

    def test_compile_kernel_file(self, registry, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "saxpy.json"
        path.write_text(json.dumps(saxpy_document()))
        assert main(["compile", "--kernel-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "initiation interval" in out

        assert main(["compile"]) == 2
        assert "kernel name or --kernel-file" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 2}))
        assert main(["compile", "--kernel-file", str(bad)]) == 2
        assert "E_VERSION" in capsys.readouterr().err

    def test_simulate_kernel_file(self, registry, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "saxpy.json"
        path.write_text(json.dumps(saxpy_document()))
        assert main(["simulate", "--kernel-file", str(path)]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_simulate_requires_a_target(self, registry, capsys):
        from repro.cli import main

        assert main(["simulate"]) == 2
        assert "application name or --kernel-file" in (
            capsys.readouterr().err
        )

    def test_simulate_unknown_application_mentions_refs(self, capsys):
        from repro.cli import main

        assert main(["simulate", "nope"]) == 2
        assert "kernel:<hash>" in capsys.readouterr().err
