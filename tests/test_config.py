"""Tests for repro.core.config (derived structural quantities)."""

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
from repro.core.params import IMAGINE_PARAMETERS, MachineParameters

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
