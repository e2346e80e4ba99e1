"""The typed ``repro.api`` facade: round-trips, strictness, dispatch.

The facade is the single schema both the CLI's ``--json`` output and
the serving daemon speak, so these tests pin down the properties the
other surfaces rely on: canonical serialization (dedup keys), strict
parsing (remote callers get real errors, not silent defaults), and
runner results that match the underlying library exactly.
"""

import json

import pytest

from repro.api import (
    API_VERSION,
    ApiError,
    CompileRequest,
    CostQuery,
    CostResult,
    REQUEST_KINDS,
    SWEEP_TARGETS,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    execute,
    request_from_dict,
    run_compile,
    run_cost_query,
    run_simulate,
    run_sweep,
    validate_request,
)
from repro.apps.suite import get_application


class TestRoundTrips:
    CASES = (
        CostQuery(16, 10),
        CompileRequest("fft", 8, 5),
        SimulateRequest("fft1k", 8, 5, 1.5),
        SimulateRequest("qrd", 16, 10),
        SweepRequest("table5", apps=False),
        SweepRequest("fig13", mode="analytical"),
    )

    @pytest.mark.parametrize("request_obj", CASES, ids=lambda r: type(r).__name__)
    def test_json_round_trip(self, request_obj):
        cls = type(request_obj)
        assert cls.from_json(request_obj.to_json()) == request_obj

    @pytest.mark.parametrize("request_obj", CASES, ids=lambda r: type(r).__name__)
    def test_canonical_serialization(self, request_obj):
        # Sorted keys + compact separators: the exact property the
        # byte-identity tests rest on.
        text = request_obj.to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )


class TestStrictParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError, match="unknown field"):
            CostQuery.from_dict({"clusters": 8, "aluss": 5})

    def test_non_object_rejected(self):
        with pytest.raises(ApiError, match="expected a JSON object"):
            CostQuery.from_dict([1, 2])

    def test_invalid_json_rejected(self):
        with pytest.raises(ApiError, match="invalid JSON"):
            CostQuery.from_json("{nope")

    def test_int_coerced_to_float_field(self):
        request = SimulateRequest.from_dict(
            {"application": "fft1k", "clock_ghz": 2}
        )
        assert isinstance(request.clock_ghz, float)
        assert request.clock_ghz == 2.0

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ApiError, match="clusters"):
            CostQuery(0, 5).validate()
        with pytest.raises(ApiError, match="kernel name"):
            CompileRequest("").validate()
        with pytest.raises(ApiError, match="clock_ghz"):
            SimulateRequest("fft1k", clock_ghz=0.0).validate()
        with pytest.raises(ApiError, match="target"):
            SweepRequest("fig99").validate()

    def test_validate_request_checks_names(self):
        with pytest.raises(ApiError, match="unknown kernel"):
            validate_request(CompileRequest("doom"))
        with pytest.raises(ApiError, match="unknown application"):
            validate_request(SimulateRequest("doom"))

    def test_request_from_dict_dispatch(self):
        request = request_from_dict("costs", {"clusters": 4, "alus": 3})
        assert request == CostQuery(4, 3)
        with pytest.raises(ApiError, match="unknown request kind"):
            request_from_dict("frobnicate", {})

    def test_request_kinds_cover_every_runner(self):
        assert set(REQUEST_KINDS) == {
            "costs", "compile", "simulate", "sweep", "kernels"
        }


class TestRunners:
    def test_cost_query_matches_cost_model(self):
        from repro.core import CostModel, ProcessorConfig

        result = run_cost_query(CostQuery(8, 5))
        model = CostModel(ProcessorConfig(8, 5))
        assert result.area_total == model.area().total
        assert result.energy_per_alu_op == model.energy_per_alu_op()
        assert result.total_alus == 40
        assert result.config_description == "C=8 N=5 (40 ALUs)"
        # Result payloads survive their own round-trip.
        assert CostResult.from_json(result.to_json()) == result

    def test_compile_matches_pipeline(self):
        from repro.compiler import compile_kernel
        from repro.core import ProcessorConfig
        from repro.kernels import get_kernel

        result = run_compile(CompileRequest("fft", 8, 5))
        schedule = compile_kernel(get_kernel("fft"), ProcessorConfig(8, 5))
        assert result.ii == schedule.ii
        assert result.ops_per_cycle == schedule.ops_per_cycle()

    def test_simulate_matches_simulator(self):
        result = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert result.cycles > 0
        assert result.application == "fft1k"
        assert set(result.bandwidth) == {
            "lrf_words", "srf_words", "memory_words", "locality_fraction"
        }
        # Repeat query: deterministic, so payloads are byte-identical
        # (this is the dedup/memo correctness contract).
        again = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert again.to_json() == result.to_json()

    def test_simulate_result_round_trip(self):
        result = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert SimulateResult.from_json(result.to_json()) == result

    def test_sweep_table5_rows(self):
        result = run_sweep(SweepRequest("table5"))
        assert result.target == "table5"
        assert all(
            set(row) == {"clusters", "alus", "perf_per_area"}
            for row in result.rows
        )
        assert all(row["perf_per_area"] > 0 for row in result.rows)
        assert any(
            row["clusters"] == 8 and row["alus"] == 5 for row in result.rows
        )

    def test_execute_dispatches(self):
        assert execute(CostQuery(8, 5)) == run_cost_query(CostQuery(8, 5))
        with pytest.raises(ApiError, match="not an API request"):
            execute("costs")  # type: ignore[arg-type]

    def test_api_version_is_four(self):
        # 2: requests grew the ``mode`` field.  3: SimulateResult grew
        # the raw busy-cycle fields cluster workers ship back.
        # 4: kernel registration (RegisterKernelRequest/KernelRef) and
        # SweepRequest.kernel.  5: the async job surface (/v1/jobs),
        # the canonical /v1/sweeps route, and error-envelope pointers.
        # 6: SimulateRequest.mode and .max_events, JobStatus.mode and
        # the singular /v1/sweep route are gone.  7: SweepRequest.workers
        # is gone (every sweep point runs in the calling process).
        # 8: the async job surface and /v1/progress are gone.
        assert API_VERSION == 8


class TestV6Contract:
    """Fields v6 removed are unknown fields, named in the error."""

    @pytest.mark.parametrize("field,value", [
        ("max_events", 3), ("mode", "analytical"),
    ])
    def test_removed_simulate_fields_are_rejected(self, field, value):
        body = {"application": "fft1k", "clusters": 8, "alus": 5,
                field: value}
        with pytest.raises(ApiError, match=f"unknown field.*{field}"):
            SimulateRequest.from_dict(body)



class TestV7Contract:
    """The field v7 removed is an unknown field, named in the error."""

    def test_sweep_workers_is_rejected(self):
        with pytest.raises(ApiError, match="unknown field.*workers"):
            SweepRequest.from_dict({"target": "table5", "workers": 2})
        with pytest.raises(TypeError):
            SweepRequest("table5", workers=2)  # type: ignore[call-arg]


class TestV8Contract:
    """v8 removed the async job surface: no job type is exported."""

    def test_job_types_are_gone(self):
        import repro.api as api

        for name in ("JOB_STATES", "JobRequest", "JobResult", "JobStatus"):
            assert not hasattr(api, name)
            assert name not in api.__all__
        assert set(api.REQUEST_KINDS) == {
            "costs", "compile", "simulate", "sweep", "kernels",
        }


class TestExecutionModes:
    """The deprecated ``SweepRequest.mode`` field: still validated
    strictly, and an alias with no effect — every accepted value answers
    the same bytes."""

    def test_mode_round_trips(self):
        request = SweepRequest("fig13", mode="analytical")
        assert SweepRequest.from_json(request.to_json()) == request
        assert json.loads(request.to_json())["mode"] == "analytical"

    def test_unknown_mode_names_allowed_modes(self):
        from repro.api import SWEEP_MODES

        with pytest.raises(ApiError) as excinfo:
            SweepRequest("fig13", mode="oracular").validate()
        message = str(excinfo.value)
        assert "oracular" in message
        for mode in SWEEP_MODES:
            assert mode in message

    def test_unknown_mode_rejected_from_json(self):
        with pytest.raises(ApiError, match="allowed modes"):
            execute(SweepRequest.from_dict(
                {"target": "fig13", "mode": "oracular"}
            ))

    def test_srf_overflow_is_a_bad_request_in_both_modes(self):
        """qrd cannot fit the SRF at C=8/N=2: the API's prediction is
        a bad request, and the timeline simulator refuses it too."""
        from repro.core.config import ProcessorConfig
        from repro.sim import CapacityError, simulate

        with pytest.raises(ApiError) as excinfo:
            run_simulate(SimulateRequest("qrd", 8, 2))
        message = str(excinfo.value)
        for part in ("'qrd'", "C=8", "N=2", "17600 words"):
            assert part in message
        with pytest.raises(CapacityError):
            simulate(get_application("qrd"), ProcessorConfig(8, 2))

    @pytest.mark.parametrize("target", SWEEP_TARGETS)
    def test_analytical_sweep_matches_simulated(self, target):
        simulated = execute(SweepRequest(target))
        analytical = execute(SweepRequest(target, mode="analytical"))
        assert analytical.rows == simulated.rows
        assert analytical.to_json() == simulated.to_json()
