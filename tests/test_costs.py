"""Tests for repro.core.costs (paper Table 3 and the section 4 anchors)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BASELINE_CONFIG, HEADLINE_640, ProcessorConfig
from repro.core.costs import CostModel

configs = st.builds(
    ProcessorConfig,
    clusters=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]),
    alus_per_cluster=st.integers(min_value=1, max_value=64),
)


@pytest.fixture(scope="module")
def baseline():
    return CostModel(BASELINE_CONFIG)


class TestTable3Rows:
    """Each cost row evaluates to a sane, positive quantity."""

    def test_all_area_rows_positive(self, baseline):
        assert baseline.srf_bank_area() > 0
        assert baseline.microcontroller_area() > 0
        assert baseline.cluster_area() > 0
        assert baseline.intracluster_switch_area() > 0
        assert baseline.intercluster_switch_area() > 0

    def test_all_energy_rows_positive(self, baseline):
        assert baseline.srf_bank_energy() > 0
        assert baseline.microcontroller_energy() > 0
        assert baseline.cluster_energy() > 0
        assert baseline.intracluster_switch_energy() > 0
        assert baseline.intercluster_switch_energy() > 0

    def test_switch_is_part_of_cluster(self, baseline):
        assert (
            baseline.intracluster_switch_area() < baseline.cluster_area()
        )

    def test_breakdown_totals_are_sums(self, baseline):
        area = baseline.area()
        assert area.total == pytest.approx(
            area.srf
            + area.microcontroller
            + area.clusters
            + area.intercluster_switch
        )
        energy = baseline.energy()
        assert energy.total == pytest.approx(
            energy.srf
            + energy.microcontroller
            + energy.clusters
            + energy.intercluster_switch
        )

    def test_alu_energy_dominates_cluster(self, baseline):
        """ALUs plus LRFs are the bulk of cluster energy (the stream
        register organization keeps overhead structures small)."""
        p = BASELINE_CONFIG.params
        useful = (
            BASELINE_CONFIG.alus_per_cluster * p.e_alu
            + BASELINE_CONFIG.n_fu_cost * p.e_lrf
        )
        assert useful / baseline.cluster_energy() > 0.5

    def test_per_alu_helpers(self, baseline):
        area = baseline.area()
        per_alu = area.per_alu(BASELINE_CONFIG.total_alus)
        assert per_alu.total == pytest.approx(area.total / 40)
        assert baseline.area_per_alu() == pytest.approx(area.total / 40)


class TestIntraclusterAnchors:
    """Paper section 4.1 (Figures 6-8)."""

    def test_n5_is_the_area_minimum(self):
        """N=5 is "the most area- and energy-efficient configuration"."""
        areas = {
            n: CostModel(ProcessorConfig(8, n)).area_per_alu()
            for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16)
        }
        assert min(areas, key=areas.get) == 5

    def test_n5_is_the_energy_minimum(self):
        energies = {
            n: CostModel(ProcessorConfig(8, n)).energy_per_alu_op()
            for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16)
        }
        assert min(energies, key=energies.get) == 5

    def test_area_within_16_percent_to_n16(self):
        """Area/ALU stays within 16% of the minimum up to 16 ALUs."""
        base = CostModel(ProcessorConfig(8, 5)).area_per_alu()
        for n in (4, 5, 6, 8, 10, 12, 14, 16):
            ratio = CostModel(ProcessorConfig(8, n)).area_per_alu() / base
            assert ratio <= 1.16 + 0.01, f"N={n} area ratio {ratio:.3f}"

    def test_energy_at_n16_near_paper_value(self):
        """Energy/op at N=16 grew to 1.23x of the minimum (paper 4.1)."""
        base = CostModel(ProcessorConfig(8, 5)).energy_per_alu_op()
        ratio = CostModel(ProcessorConfig(8, 16)).energy_per_alu_op() / base
        assert ratio == pytest.approx(1.23, rel=0.08)

    def test_n10_cost_in_paper_band(self):
        """Scaling N=5 -> N=10 costs 5-11% area and 14-21% energy per ALU
        (paper section 4.3); we accept a slightly wider band."""
        base = CostModel(ProcessorConfig(8, 5))
        ten = CostModel(ProcessorConfig(8, 10))
        area_ratio = ten.area_per_alu() / base.area_per_alu()
        energy_ratio = ten.energy_per_alu_op() / base.energy_per_alu_op()
        assert 1.02 <= area_ratio <= 1.13
        assert 1.05 <= energy_ratio <= 1.23

    def test_intracluster_delay_grows_with_n(self):
        delays = [
            CostModel(ProcessorConfig(8, n)).intracluster_delay()
            for n in (2, 5, 10, 16, 32, 64, 128)
        ]
        assert delays == sorted(delays)

    def test_pipeline_stage_appears_at_n14_not_n10(self):
        """Paper section 5.1: the extra ALU pipeline stage appears in the
        N=14 configurations."""
        assert CostModel(ProcessorConfig(8, 10)).intracluster_pipeline_stages() == 0
        assert CostModel(ProcessorConfig(8, 14)).intracluster_pipeline_stages() >= 1


class TestInterclusterAnchors:
    """Paper section 4.2 (Figures 9-11)."""

    def test_c32_improves_on_c8(self):
        """C=32 has ~3% better area/ALU than C=8 (microcode amortized)."""
        base = CostModel(ProcessorConfig(8, 5)).area_per_alu()
        ratio = CostModel(ProcessorConfig(32, 5)).area_per_alu() / base
        assert 0.93 <= ratio <= 0.99

    def test_c128_area_overhead_about_2_percent(self):
        base = CostModel(ProcessorConfig(8, 5)).area_per_alu()
        ratio = CostModel(HEADLINE_640).area_per_alu() / base
        assert ratio == pytest.approx(1.02, abs=0.03)

    def test_c128_energy_overhead_about_7_percent(self):
        base = CostModel(ProcessorConfig(8, 5)).energy_per_alu_op()
        ratio = CostModel(HEADLINE_640).energy_per_alu_op() / base
        assert ratio == pytest.approx(1.07, abs=0.05)

    def test_intracluster_delay_constant_in_c(self):
        """Figure 11: intracluster delay does not depend on C."""
        d8 = CostModel(ProcessorConfig(8, 5)).intracluster_delay()
        d256 = CostModel(ProcessorConfig(256, 5)).intracluster_delay()
        assert d8 == pytest.approx(d256)

    def test_intercluster_delay_grows_with_c(self):
        delays = [
            CostModel(ProcessorConfig(c, 5)).intercluster_delay()
            for c in (8, 16, 32, 64, 128, 256)
        ]
        assert delays == sorted(delays)

    def test_intercluster_delay_about_one_cycle_at_baseline(self):
        """Figure 11: roughly one 45-FO4 cycle at C=8/N=5."""
        delay = CostModel(ProcessorConfig(8, 5)).intercluster_delay()
        assert 35.0 <= delay <= 60.0

    def test_comm_latency_cycles_monotone(self):
        lat = [
            CostModel(ProcessorConfig(c, 5)).intercluster_latency_cycles()
            for c in (8, 32, 128, 256)
        ]
        assert lat == sorted(lat)
        assert lat[0] >= 1


class TestModelProperties:
    @given(configs)
    @settings(max_examples=60, deadline=None)
    def test_costs_positive_everywhere(self, config):
        model = CostModel(config)
        assert model.area().total > 0
        assert model.energy().total > 0
        assert model.delay().intercluster > model.delay().intracluster

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_total_area_scales_superlinearly_in_c(self, n):
        """Doubling C at least doubles total area (shared ucode grows
        sublinearly but per-cluster structures dominate)."""
        small = CostModel(ProcessorConfig(8, n)).area().total
        large = CostModel(ProcessorConfig(16, n)).area().total
        assert large > 1.8 * small

    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))
    @settings(max_examples=20, deadline=None)
    def test_energy_per_op_floor_is_alu_energy(self, c):
        """No configuration dissipates less per op than the bare ALU."""
        model = CostModel(ProcessorConfig(c, 5))
        assert model.energy_per_alu_op() > model.params.e_alu


@pytest.fixture()
def switch_area_evaluations(monkeypatch):
    """How many times ``intracluster_switch_area`` is really derived."""
    from repro.core import costs

    evaluations = []
    derive = CostModel.intracluster_switch_area.__wrapped__

    def intracluster_switch_area(self):
        evaluations.append(self.config)
        return derive(self)

    monkeypatch.setattr(
        CostModel, "intracluster_switch_area",
        costs._term(intracluster_switch_area),
    )
    return evaluations


class TestTermsComputedOnce:
    def test_one_model_derives_the_switch_area_once(
        self, switch_area_evaluations
    ):
        model = CostModel(ProcessorConfig(32, 5))
        area, energy, delay = model.area(), model.energy(), model.delay()
        model.area_per_alu()
        model.energy_per_alu_op()
        model.intercluster_latency_cycles()
        assert switch_area_evaluations == [ProcessorConfig(32, 5)]
        fresh = CostModel(ProcessorConfig(32, 5))
        assert (fresh.area(), fresh.energy(), fresh.delay()) == (
            area, energy, delay
        )
        assert len(switch_area_evaluations) == 2  # nothing shared across models

    def test_a_cost_query_builds_one_model(self, switch_area_evaluations,
                                           monkeypatch):
        from repro.api import CostQuery, run_cost_query

        built = []
        init = CostModel.__init__

        def counting_init(self, config):
            built.append(config)
            init(self, config)

        monkeypatch.setattr(CostModel, "__init__", counting_init)
        result = run_cost_query(CostQuery(128, 10))
        assert built == [ProcessorConfig(128, 10)]
        assert switch_area_evaluations == [ProcessorConfig(128, 10)]
        assert result.feasibility["power_watts"] > 0

    def test_subclass_overrides_still_apply(self):
        from repro.core.crossbar import SparseSwitchModel

        full = CostModel(ProcessorConfig(8, 16))
        half = SparseSwitchModel(ProcessorConfig(8, 16), 0.5)
        assert half.intracluster_switch_area() == pytest.approx(
            0.5 * full.intracluster_switch_area()
        )
        assert half.cluster_area() < full.cluster_area()
        assert half.intracluster_delay() < full.intracluster_delay()
