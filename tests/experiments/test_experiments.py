"""Tests for the experiment modules (Table I, Figures 3-6, headline claims)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.experiments.calibration import run_calibration
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import DEFAULT_BER_GRID, run_figure5
from repro.experiments.figure6 import run_figure6a, run_figure6b
from repro.experiments.headline import run_headline
from repro.experiments.paperdata import Comparison, relative_error
from repro.experiments.table1 import run_table1
from repro.experiments.validation import run_validation


class TestPaperData:
    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        with pytest.raises(ZeroDivisionError):
            relative_error(1.0, 0.0)

    def test_comparison_render(self):
        comparison = Comparison("test quantity", 9.0, 10.0, unit="mW")
        text = comparison.render()
        assert "test quantity" in text
        assert "-10.0%" in text


class TestTable1Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1()

    def test_library_totals_match_the_paper_exactly(self, result):
        library_comparisons = [
            c for c in result.comparisons if not c.quantity.startswith("parametric")
        ]
        for comparison in library_comparisons:
            assert abs(comparison.relative_error) < 0.01, comparison.quantity

    def test_parametric_estimates_are_within_fifty_percent(self, result):
        parametric = [c for c in result.comparisons if c.quantity.startswith("parametric")]
        assert parametric
        for comparison in parametric:
            assert abs(comparison.relative_error) < 0.5, comparison.quantity

    def test_render_text_contains_the_table(self, result):
        text = result.render_text()
        assert "Table I" in text
        assert "tx/h74_coders_x16" in text


class TestFigure3Experiment:
    def test_extinction_ratio_is_reproduced(self):
        result = run_figure3()
        assert result.achieved_extinction_db == pytest.approx(6.9, abs=0.3)

    def test_spectra_have_dips(self):
        result = run_figure3()
        assert result.on_transmission_db.min() < -3.0
        assert result.off_transmission_db.min() < -3.0
        assert result.wavelengths_m.size == result.on_transmission_db.size


class TestFigure4Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure4()

    def test_curve_is_monotonically_increasing(self, result):
        assert np.all(np.diff(result.laser_power_mw) > 0)

    def test_linear_region_below_500uw(self, result):
        assert result.linearity_error_below_500uw < 0.25

    def test_superlinear_growth_at_high_power(self, result):
        op = result.optical_power_uw
        p = result.laser_power_mw
        low_slope = (p[op <= 200][-1] - p[0]) / 200.0
        high_mask = op >= 600
        high_slope = (p[high_mask][-1] - p[high_mask][0]) / (op[high_mask][-1] - op[high_mask][0])
        assert high_slope > 1.1 * low_slope

    def test_maximum_deliverable_power_is_700uw(self, result):
        assert result.max_deliverable_uw == pytest.approx(700.0)

    def test_laser_draws_10_to_20_mw_near_its_maximum_output(self, result):
        # The magnitude the paper plots near the 700 uW rating.
        index = int(np.argmin(np.abs(result.optical_power_uw - 700.0)))
        assert 10.0 < result.laser_power_mw[index] < 20.0

    def test_efficiency_is_around_five_percent(self, result):
        assert 0.04 < result.low_power_efficiency < 0.08


class TestFigure5Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_every_scheme_has_a_full_sweep(self, result):
        for points in result.series.values():
            assert len(points) == len(DEFAULT_BER_GRID)

    def test_uncoded_curve_is_always_the_highest(self, result):
        uncoded = [p.laser_electrical_power_w for p in result.series["w/o ECC"]]
        for name in ("H(71,64)", "H(7,4)"):
            coded = [p.laser_electrical_power_w for p in result.series[name]]
            assert all(u > c for u, c in zip(uncoded, coded))

    def test_laser_power_grows_towards_stricter_ber_targets(self, result):
        # The grid runs from 1e-3 down to 1e-12, so the power must be
        # non-decreasing along it.
        for points in result.series.values():
            powers = [p.laser_electrical_power_w for p in points]
            assert all(a <= b for a, b in zip(powers, powers[1:]))

    def test_uncoded_1e12_is_the_only_infeasible_point(self, result):
        assert not result.point_at("w/o ECC", 1e-12).feasible
        assert result.point_at("H(71,64)", 1e-12).feasible
        assert result.point_at("H(7,4)", 1e-12).feasible
        assert result.point_at("w/o ECC", 1e-11).feasible

    def test_1e11_values_track_the_paper_within_twenty_percent(self, result):
        for comparison in result.comparisons:
            assert abs(comparison.relative_error) < 0.20, comparison.quantity

    def test_missing_ber_raises(self, result):
        with pytest.raises(KeyError):
            result.point_at("H(7,4)", 3e-7)

    def test_render_text(self, result):
        text = result.render_text()
        assert "infeasible" in text
        assert "1e-11" in text or "1e-11".upper() in text.upper()


class TestFigure6Experiments:
    @pytest.fixture(scope="class")
    def result_a(self):
        return run_figure6a()

    @pytest.fixture(scope="class")
    def result_b(self):
        return run_figure6b()

    def test_laser_share_is_about_92_percent_without_ecc(self, result_a):
        assert result_a.breakdowns["w/o ECC"].laser_share == pytest.approx(0.92, abs=0.02)

    def test_channel_power_reduction_is_roughly_half(self, result_a):
        assert result_a.power_reduction_vs_uncoded("H(71,64)") == pytest.approx(0.45, abs=0.10)
        assert result_a.power_reduction_vs_uncoded("H(7,4)") == pytest.approx(0.49, abs=0.10)

    def test_h71_is_the_most_energy_efficient(self, result_a):
        energies = {
            name: metrics.energy_per_bit_modulation_j
            for name, metrics in result_a.energies.items()
        }
        assert min(energies, key=energies.get) == "H(71,64)"

    def test_waveguide_power_comparisons_are_close_to_the_paper(self, result_a):
        for comparison in result_a.comparisons:
            if comparison.quantity.startswith("channel power per waveguide"):
                assert abs(comparison.relative_error) < 0.15, comparison.quantity

    def test_all_schemes_lie_on_the_pareto_front(self, result_b):
        for ber in result_b.target_bers:
            points = result_b.points_for_ber(ber)
            front = result_b.front_for_ber(ber)
            assert {p.code_name for p in front} == {p.code_name for p in points}

    def test_infeasible_points_are_excluded(self, result_b):
        # At 1e-12 the uncoded scheme must not appear in the cloud.
        names_at_1e12 = {p.code_name for p in result_b.points_for_ber(1e-12)}
        assert names_at_1e12 == {"H(71,64)", "H(7,4)"}

    def test_power_falls_along_each_front(self, result_b):
        for ber in result_b.target_bers:
            ordered = sorted(result_b.front_for_ber(ber), key=lambda p: p.communication_time)
            powers = [p.channel_power_w for p in ordered]
            assert all(a >= b for a, b in zip(powers, powers[1:])), ber

    def test_stricter_targets_cost_more_channel_power(self, result_b):
        relaxed = {p.code_name: p.channel_power_w for p in result_b.points_for_ber(1e-6)}
        strict = {p.code_name: p.channel_power_w for p in result_b.points_for_ber(1e-10)}
        for name in ("H(71,64)", "H(7,4)", "w/o ECC"):
            assert strict[name] > relaxed[name], name

    def test_render_text(self, result_a, result_b):
        assert "Figure 6a" in result_a.render_text()
        assert "Figure 6b" in result_b.render_text()


class TestHeadlineExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_headline()

    def test_laser_share(self, result):
        assert result.laser_share_uncoded == pytest.approx(0.92, abs=0.02)

    def test_power_reductions(self, result):
        assert result.power_reduction["H(71,64)"] == pytest.approx(0.45, abs=0.10)
        assert result.power_reduction["H(7,4)"] == pytest.approx(0.49, abs=0.10)

    def test_per_waveguide_power_drops_from_251_to_136_mw(self, result):
        assert result.per_waveguide_power_mw["w/o ECC"] == pytest.approx(251.0, rel=0.10)
        assert result.per_waveguide_power_mw["H(71,64)"] == pytest.approx(136.0, rel=0.10)

    def test_total_saving_is_close_to_22w(self, result):
        assert result.total_saving_w == pytest.approx(22.0, rel=0.25)

    def test_ber_1e12_feasibility_pattern(self, result):
        assert result.ber_1e12_feasible == {
            "w/o ECC": False,
            "H(71,64)": True,
            "H(7,4)": True,
        }

    def test_render_text(self, result):
        text = result.render_text()
        assert "laser share" in text
        assert "22" in text or "W" in text


class TestCalibrationSummary:
    def test_signal_path_loss_documented_range(self):
        summary = run_calibration()
        assert 8.0 < summary.signal_path_loss_db < 9.5
        assert summary.laser_max_output_uw == pytest.approx(700.0)
        assert "dB" in summary.render_text()


class TestValidationExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_validation(num_blocks=4000, targets=(1e-3,), seed=7)

    def test_covers_the_paper_code_set(self, result):
        assert {p.code_name for p in result.points} == {"w/o ECC", "H(71,64)", "H(7,4)"}

    def test_measured_raw_ber_tracks_equation_three(self, result):
        for point in result.points:
            assert point.measured_raw_ber == pytest.approx(point.analytic_raw_ber, rel=0.3), (
                point.code_name
            )

    def test_coded_links_beat_their_raw_ber(self, result):
        for name in ("H(71,64)", "H(7,4)"):
            point = result.point_for(name, 1e-3)
            assert point.measured_post_ber < point.measured_raw_ber

    def test_point_lookup_and_rendering(self, result):
        assert result.point_for("H(7,4)", 1e-3).blocks_simulated == 4000
        with pytest.raises(KeyError):
            result.point_for("H(7,4)", 1e-9)
        text = result.render_text()
        assert "Monte-Carlo validation" in text
        assert "H(71,64)" in text
        assert len(result.to_rows()) == 3

    def test_registered_with_the_runner(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "validation" in EXPERIMENTS


class TestRunnerCli:
    def test_runner_executes_selected_experiments(self, capsys, tmp_path):
        from repro.experiments.runner import main

        exit_code = main(["calibration", "figure4", "--csv", str(tmp_path)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Experiment calibration" in captured
        assert (tmp_path / "figure4.csv").exists()

    def test_runner_rejects_unknown_experiments(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])
