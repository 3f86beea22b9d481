"""Tests for the experiment modules (Table I, Figures 3-6, headline claims)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments.calibration import run_calibration
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import DEFAULT_BER_GRID
from repro.experiments.headline import run_headline
from repro.experiments.orchestrator import available_experiments, describe_grid, run_experiment
from repro.experiments.paperdata import (
    PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW,
    PAPER_LASER_POWER_MW_AT_1E11,
    Comparison,
    relative_error,
)
from repro.experiments.table1 import run_table1
from repro.manager.pareto import ParetoPoint, pareto_front


def _row(rows: list[dict], code: str, target_ber: float) -> dict:
    """The one row of ``code`` at ``target_ber``."""
    (row,) = [
        r
        for r in rows
        if r["code"] == code and np.isclose(r["target_ber"], target_ber, rtol=1e-9, atol=0.0)
    ]
    return row


def _pareto_points(rows: list[dict], target_ber: float) -> list[ParetoPoint]:
    """The ``figure6b`` rows at one BER target as trade-off points."""
    return [
        ParetoPoint(
            code_name=r["code"],
            target_ber=r["target_ber"],
            communication_time=r["communication_time"],
            channel_power_w=r["channel_power_mw"] / 1e3,
        )
        for r in rows
        if np.isclose(r["target_ber"], target_ber, rtol=1e-9, atol=0.0)
    ]


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
        assert result.comparison.measured == pytest.approx(6.9, abs=0.3)

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
        return run_experiment("figure5")

    def test_every_scheme_has_a_full_sweep(self, result):
        _, rows = result
        for name in ("w/o ECC", "H(71,64)", "H(7,4)"):
            assert [r["target_ber"] for r in rows if r["code"] == name] == list(DEFAULT_BER_GRID)

    def test_uncoded_curve_is_always_the_highest(self, result):
        _, rows = result
        for ber in DEFAULT_BER_GRID:
            uncoded = _row(rows, "w/o ECC", ber)["p_laser_mw"]
            for name in ("H(71,64)", "H(7,4)"):
                assert uncoded > _row(rows, name, ber)["p_laser_mw"], (name, ber)

    def test_laser_power_grows_towards_stricter_ber_targets(self, result):
        # The grid runs from 1e-3 down to 1e-12, so the power must be
        # non-decreasing along it.
        _, rows = result
        for name in ("w/o ECC", "H(71,64)", "H(7,4)"):
            powers = [r["p_laser_mw"] for r in rows if r["code"] == name]
            assert all(a <= b for a, b in zip(powers, powers[1:]))

    def test_uncoded_1e12_is_the_only_infeasible_point(self, result):
        _, rows = result
        assert [(r["code"], r["target_ber"]) for r in rows if not r["feasible"]] == [
            ("w/o ECC", 1e-12)
        ]

    def test_1e11_values_track_the_paper_within_twenty_percent(self, result):
        _, rows = result
        for name, reference in PAPER_LASER_POWER_MW_AT_1E11.items():
            measured = _row(rows, name, 1e-11)["p_laser_mw"]
            assert abs(relative_error(measured, reference)) < 0.20, name

    def test_missing_ber_raises(self):
        # A BER that is missing (null) or not a number fails when the grid
        # is described, before any shard runs.
        for ber in (None, "x"):
            with pytest.raises(ConfigurationError):
                describe_grid("figure5", options={"target_bers": [1e-9, ber]})

    def test_render_text(self, result):
        text, _ = result
        assert "infeasible" in text
        assert "1e-11" in text or "1e-11".upper() in text.upper()


class TestFigure6Experiments:
    @pytest.fixture(scope="class")
    def result_a(self):
        return run_experiment("figure6a")

    @pytest.fixture(scope="class")
    def result_b(self):
        return run_experiment("figure6b")

    def test_laser_share_is_about_92_percent_without_ecc(self, result_a):
        _, rows = result_a
        assert _row(rows, "w/o ECC", 1e-11)["laser_share"] == pytest.approx(0.92, abs=0.02)

    def test_channel_power_reduction_is_roughly_half(self, result_a):
        _, rows = result_a
        uncoded = _row(rows, "w/o ECC", 1e-11)["total_mw"]
        for name, expected in (("H(71,64)", 0.45), ("H(7,4)", 0.49)):
            reduction = 1.0 - _row(rows, name, 1e-11)["total_mw"] / uncoded
            assert reduction == pytest.approx(expected, abs=0.10), name

    def test_h71_is_the_most_energy_efficient(self, result_a):
        # Energy per payload bit at the modulation rate is the channel power
        # times the communication-time overhead (n/k), over a common rate.
        _, rows = result_a
        energies = {r["code"]: r["total_mw"] * r["communication_time"] for r in rows}
        assert min(energies, key=energies.get) == "H(71,64)"

    def test_waveguide_power_comparisons_are_close_to_the_paper(self, result_a):
        _, rows = result_a
        for name, reference in PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW.items():
            measured = _row(rows, name, 1e-11)["total_mw"] * DEFAULT_CONFIG.num_wavelengths
            assert abs(relative_error(measured, reference)) < 0.15, name

    def test_all_schemes_lie_on_the_pareto_front(self, result_b):
        _, rows = result_b
        for ber in (1e-6, 1e-8, 1e-10, 1e-12):
            points = _pareto_points(rows, ber)
            assert points
            assert {p.code_name for p in pareto_front(points)} == {p.code_name for p in points}

    def test_infeasible_points_are_excluded(self, result_b):
        # At 1e-12 the uncoded scheme must not appear in the cloud.
        _, rows = result_b
        names_at_1e12 = {p.code_name for p in _pareto_points(rows, 1e-12)}
        assert names_at_1e12 == {"H(71,64)", "H(7,4)"}

    def test_power_falls_along_each_front(self, result_b):
        _, rows = result_b
        for ber in (1e-6, 1e-8, 1e-10, 1e-12):
            ordered = sorted(
                pareto_front(_pareto_points(rows, ber)), key=lambda p: p.communication_time
            )
            powers = [p.channel_power_w for p in ordered]
            assert all(a >= b for a, b in zip(powers, powers[1:])), ber

    def test_stricter_targets_cost_more_channel_power(self, result_b):
        _, rows = result_b
        relaxed = {p.code_name: p.channel_power_w for p in _pareto_points(rows, 1e-6)}
        strict = {p.code_name: p.channel_power_w for p in _pareto_points(rows, 1e-10)}
        for name in ("H(71,64)", "H(7,4)", "w/o ECC"):
            assert strict[name] > relaxed[name], name

    def test_render_text(self, result_a, result_b):
        assert "Figure 6a" in result_a[0]
        assert "Figure 6b" in result_b[0]


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
        return run_experiment(
            "validation", options={"num_blocks": 4000, "targets": [1e-3], "seed": 7}
        )

    def test_covers_the_paper_code_set(self, result):
        _, rows = result
        assert {r["code"] for r in rows} == {"w/o ECC", "H(71,64)", "H(7,4)"}

    def test_measured_raw_ber_tracks_equation_three(self, result):
        _, rows = result
        for row in rows:
            assert row["measured_raw_ber"] == pytest.approx(row["analytic_raw_ber"], rel=0.3), (
                row["code"]
            )

    def test_coded_links_beat_their_raw_ber(self, result):
        _, rows = result
        for name in ("H(71,64)", "H(7,4)"):
            row = _row(rows, name, 1e-3)
            assert row["measured_post_ber"] < row["measured_raw_ber"]

    def test_point_lookup_and_rendering(self, result):
        text, rows = result
        assert _row(rows, "H(7,4)", 1e-3)["blocks"] == 4000
        assert not [r for r in rows if r["target_ber"] == 1e-9]
        assert "Monte-Carlo validation" in text
        assert "H(71,64)" in text
        assert len(rows) == 3

    def test_registered_with_the_runner(self):
        assert "validation" in available_experiments()


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
