"""Tests for repro.core.config (derived structural quantities)."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.config import (
    BASELINE_CONFIG,
    HEADLINE_640,
    HEADLINE_1280,
    IMAGINE_CONFIG,
    ProcessorConfig,
)
from repro.core import config as config_module
from repro.core.params import (
    IMAGINE_PARAMETERS,
    TECH_45NM,
    MachineParameters,
    TechnologyNode,
)

configs = st.builds(
    ProcessorConfig,
    clusters=st.integers(min_value=1, max_value=512),
    alus_per_cluster=st.integers(min_value=1, max_value=128),
)


class TestValidation:
    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            ProcessorConfig(0, 5)

    def test_rejects_zero_alus(self):
        with pytest.raises(ValueError):
            ProcessorConfig(8, 0)

    @pytest.mark.parametrize(
        "changes", [{"t_cyc": 0.0}, {"b": -1}, {"g_comm": -0.1}]
    )
    def test_rejects_invalid_params_every_time(self, changes):
        # Parameters are validated once per distinct set; an invalid
        # set is never remembered as valid, so each config raises.
        bad = IMAGINE_PARAMETERS.replace(**changes)
        for _ in range(2):
            with pytest.raises(ValueError, match="parameter"):
                ProcessorConfig(8, 5, bad)
        ProcessorConfig(8, 5, IMAGINE_PARAMETERS.replace(t_cyc=20.0))

    def test_validates_each_distinct_parameter_set_once(self, monkeypatch):
        calls = []
        real = MachineParameters.validate
        monkeypatch.setattr(
            MachineParameters, "validate",
            lambda self: calls.append(self) or real(self),
        )
        config_module._validate_params.cache_clear()
        fresh = IMAGINE_PARAMETERS.replace(r_uc=4096.0)
        for clusters in (8, 16, 32):
            ProcessorConfig(clusters, 5, fresh)
            ProcessorConfig(clusters, 5, fresh.replace())  # equal copy
        assert calls == [fresh]


class TestDerivedCounts:
    """Paper Table 3, first section, at known points."""

    def test_baseline_has_one_comm_one_sp(self):
        # Paper: "scaling to N = 5, or one COMM unit per arithmetic
        # cluster".
        assert BASELINE_CONFIG.n_comm == 1
        assert BASELINE_CONFIG.n_sp == 1
        assert BASELINE_CONFIG.n_fu == 7

    def test_small_clusters_keep_at_least_one_unit(self):
        tiny = ProcessorConfig(8, 2)
        assert tiny.n_comm == 1
        assert tiny.n_sp == 1

    def test_unit_counts_grow_with_n(self):
        big = ProcessorConfig(8, 10)
        assert big.n_comm == 2
        assert big.n_sp == 2
        assert big.n_fu == 14

    def test_streambuffers(self):
        # N_CLSB = L_C + L_N * N = 6 + 0.2*5 = 7; N_SB = 6 + 7 = 13.
        assert BASELINE_CONFIG.n_cluster_sbs == 7
        assert BASELINE_CONFIG.n_sbs == 13
        assert BASELINE_CONFIG.external_ports == 7

    def test_total_alus(self):
        assert BASELINE_CONFIG.total_alus == 40
        assert HEADLINE_640.total_alus == 640
        assert HEADLINE_1280.total_alus == 1280
        assert IMAGINE_CONFIG.total_alus == 48

    def test_srf_capacity(self):
        # r_m * T * N * C = 20 * 55 * 5 * 8 = 44,000 words.
        assert BASELINE_CONFIG.srf_capacity_words == 44_000
        assert BASELINE_CONFIG.srf_bank_words == 5_500

    def test_vliw_width(self):
        # I_0 + I_N * N_FU = 196 + 40 * 7 = 476 bits.
        assert BASELINE_CONFIG.vliw_width_bits == 476.0

    def test_describe(self):
        assert BASELINE_CONFIG.describe() == "C=8 N=5 (40 ALUs)"


class TestContinuousCostCounts:
    def test_continuous_at_exact_provisioning(self):
        # At N=5, G_COMM*N is exactly 1: continuous == integer.
        assert BASELINE_CONFIG.n_comm_cost == 1.0
        assert BASELINE_CONFIG.n_fu_cost == 7.0

    def test_continuous_floor_at_one(self):
        tiny = ProcessorConfig(8, 2)
        assert tiny.n_comm_cost == 1.0
        assert tiny.n_sp_cost == 1.0

    def test_continuous_fractional_above_one(self):
        cfg = ProcessorConfig(8, 6)
        assert cfg.n_comm_cost == pytest.approx(1.2)
        assert cfg.n_comm == 2  # the machine description rounds up


class TestProperties:
    @given(configs)
    def test_integer_counts_cover_continuous(self, config):
        """Physical unit counts never fall below the provisioning rate."""
        assert config.n_comm >= config.n_comm_cost - 1e-9
        assert config.n_sp >= config.n_sp_cost - 1e-9
        assert config.n_cluster_sbs >= config.n_cluster_sbs_cost - 1e-9

    @given(configs)
    def test_counts_at_least_one(self, config):
        assert config.n_comm >= 1
        assert config.n_sp >= 1
        assert config.n_fu > config.alus_per_cluster

    @given(configs, st.integers(min_value=1, max_value=128))
    def test_srf_capacity_monotone_in_n(self, config, more):
        bigger = ProcessorConfig(
            config.clusters, config.alus_per_cluster + more, config.params
        )
        assert bigger.srf_capacity_words > config.srf_capacity_words

    @given(configs)
    def test_bandwidth_hierarchy_ordering(self, config):
        """LRF bandwidth always exceeds SRF bandwidth (paper section 2.2)."""
        assert config.lrf_bandwidth_words > config.srf_bandwidth_words


def _equal_pairs():
    """Instances built separately with equal values."""
    return [
        (MachineParameters(), IMAGINE_PARAMETERS),
        (MachineParameters(t_cyc=20.0), IMAGINE_PARAMETERS.replace(t_cyc=20.0)),
        (ProcessorConfig(8, 5), BASELINE_CONFIG),
        (
            ProcessorConfig(128, 10, MachineParameters()),
            ProcessorConfig(128, 10),
        ),
        (TechnologyNode(**dataclasses.asdict(TECH_45NM)), TECH_45NM),
    ]


class TestHashOnce:
    """Configs, parameter sets and nodes hash once per instance, to the
    value the generated dataclass hash gives."""

    @pytest.mark.parametrize("a, b", _equal_pairs())
    def test_equal_values_compare_and_hash_equal(self, a, b):
        assert a is not b
        assert a == b
        assert hash(a) == hash(b) == hash(a)

    @pytest.mark.parametrize("value", [
        IMAGINE_PARAMETERS, BASELINE_CONFIG, TECH_45NM,
    ])
    def test_hash_is_the_field_tuple_hash(self, value):
        fields = tuple(
            getattr(value, f.name) for f in dataclasses.fields(value)
        )
        assert hash(value) == hash(fields)

    def test_hash_is_not_a_field(self):
        config = ProcessorConfig(16, 5)
        before = repr(config)
        hash(config)
        assert repr(config) == before
        assert [f.name for f in dataclasses.fields(config)] == [
            "clusters", "alus_per_cluster", "params",
        ]
        assert set(dataclasses.asdict(config)) == {
            "clusters", "alus_per_cluster", "params",
        }

    @pytest.mark.parametrize("a, b", _equal_pairs())
    def test_pickle_round_trip_keeps_eq_and_hash(self, a, b):
        hash(a)  # the remembered hash travels with the copy
        for value in (a, b):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == a and hash(copy) == hash(a)

    def test_replace_keeps_eq_and_hash(self):
        config = ProcessorConfig(8, 5)
        hash(config)
        same = dataclasses.replace(config)
        assert same == config and hash(same) == hash(config)
        moved = dataclasses.replace(config, clusters=16)
        assert moved == ProcessorConfig(16, 5)
        assert hash(moved) == hash(ProcessorConfig(16, 5))
        assert hash(moved) != hash(config)
        params = IMAGINE_PARAMETERS.replace(t_cyc=20.0)
        assert hash(params) == hash(MachineParameters(t_cyc=20.0))
        assert hash(params) != hash(IMAGINE_PARAMETERS)

    def test_hash_is_the_same_in_another_process(self):
        probe = (
            "from repro.core.config import ProcessorConfig;"
            "from repro.core.params import TECH_45NM;"
            "print(hash(ProcessorConfig(32, 10)), hash(TECH_45NM))"
        )
        src = Path(config_module.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="7")
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert out == [
            str(hash(ProcessorConfig(32, 10))), str(hash(TECH_45NM)),
        ]

    def test_caches_keyed_on_configs_hit_for_an_equal_config(self):
        from repro.compiler.machine import _build_machine, build_machine
        from repro.core.efficiency import area_in_alu_equivalents

        build_machine(ProcessorConfig(64, 14))
        area_in_alu_equivalents(ProcessorConfig(64, 14))
        machines = _build_machine.cache_info().hits
        areas = area_in_alu_equivalents.cache_info().hits
        assert build_machine(ProcessorConfig(64, 14)) is build_machine(
            ProcessorConfig(64, 14, MachineParameters())
        )
        area_in_alu_equivalents(ProcessorConfig(64, 14))
        assert _build_machine.cache_info().hits == machines + 2
        assert area_in_alu_equivalents.cache_info().hits == areas + 1
