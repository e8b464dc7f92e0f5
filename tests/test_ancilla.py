import math

import numpy as np
import pytest

from spindemon.ancilla import (
    ControlParams,
    FidelityBudget,
    QndParams,
    control_fidelity,
    qnd_fidelity,
    simulate_nuclear_histogram,
    total_fidelity,
    visibility,
)

# Illustrative well-separated mode parameters (the device values behind the
# measured distributions are not published).
WELL_SEPARATED = dict(
    p_up_given_nuclear_up=0.85, p_up_given_nuclear_down=0.04, shots_per_read=65
)


class TestControlFidelity:
    def test_perfect_pi_pulse(self):
        c = ControlParams(drive_strength=7.6e3, detuning=0.0, pulse_duration=1.0 / (2 * 7.6e3))
        assert control_fidelity(c) == pytest.approx(1.0, abs=1e-12)

    def test_detuned_amplitude_factor(self):
        c = ControlParams(drive_strength=7.6e3, detuning=100.0, rotation_error=0.0)
        assert control_fidelity(c) == pytest.approx(0.9998, abs=5e-5)

    def test_reported_operating_point(self):
        c = ControlParams(drive_strength=7.6e3, detuning=100.0, rotation_error=0.143)
        assert control_fidelity(c) == pytest.approx(0.995, abs=3e-3)

    def test_symmetric_in_rotation_error(self):
        plus = ControlParams(drive_strength=5e3, detuning=40.0, rotation_error=0.2)
        minus = ControlParams(drive_strength=5e3, detuning=40.0, rotation_error=-0.2)
        assert control_fidelity(plus) == pytest.approx(control_fidelity(minus), rel=1e-14)

    def test_bounded_by_amplitude_factor(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            drive = 10 ** rng.uniform(3, 5)
            detuning = 10 ** rng.uniform(0, 3)
            duration = 10 ** rng.uniform(-6, -3)
            c = ControlParams(drive_strength=drive, detuning=detuning, pulse_duration=duration)
            amp = drive**2 / (drive**2 + detuning**2)
            assert control_fidelity(c) <= amp + 1e-14
        exact = ControlParams(drive_strength=1e4, detuning=500.0, rotation_error=0.0)
        amp = 1e8 / (1e8 + 500.0**2)
        assert control_fidelity(exact) == pytest.approx(amp, rel=1e-14)

    def test_requires_exactly_one_parameterization(self):
        with pytest.raises(ValueError):
            ControlParams(drive_strength=1e3, pulse_duration=1e-4, rotation_error=0.1)
        with pytest.raises(ValueError):
            ControlParams(drive_strength=1e3)


class TestQndFidelity:
    def test_reported_value(self):
        assert qnd_fidelity(QndParams(1.4e-6, 65)) == pytest.approx(0.99991, abs=1e-5)

    def test_limits(self):
        assert qnd_fidelity(QndParams(0.0, 100)) == 1.0
        assert qnd_fidelity(QndParams(0.3, 1)) == pytest.approx(0.7, rel=1e-14)

    def test_monotone(self):
        assert qnd_fidelity(QndParams(1e-5, 65)) < qnd_fidelity(QndParams(1e-6, 65))
        assert qnd_fidelity(QndParams(1e-5, 100)) < qnd_fidelity(QndParams(1e-5, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            QndParams(-0.1, 10)
        with pytest.raises(ValueError):
            QndParams(0.1, 0)


class TestTotalFidelity:
    def test_reported_budget(self):
        budget = total_fidelity(0.989, 0.995, 0.9999)
        assert budget.f_total == pytest.approx(0.9840, abs=1e-3)
        assert budget.f_total == pytest.approx(0.9839565945, rel=1e-12)

    def test_identity_factor(self):
        budget = total_fidelity(0.931, 1.0, 0.977)
        assert budget.f_total == pytest.approx(0.931 * 0.977, rel=1e-14)

    def test_inversion_recovers_first_stage(self):
        measured = 0.9840
        derived = measured / (0.995 * 0.9999)
        assert derived == pytest.approx(0.989, abs=1e-3)

    def test_budget_consistency_enforced(self):
        with pytest.raises(ValueError):
            FidelityBudget(f_init=0.9, f_control=0.9, f_readout=0.9, f_total=0.5)
        with pytest.raises(ValueError):
            total_fidelity(1.2, 0.5, 0.5)


class TestNuclearHistogram:
    def test_delta_modes(self):
        hist = simulate_nuclear_histogram(1.0, 0.0, 65, 2000, seed=42)
        assert set(np.unique(hist.up_fractions)) == {0.0, 1.0}
        result = visibility(hist, threshold=0.5)
        assert result.visibility == 1.0
        assert result.overlap == 0.0
        assert result.f_low == 1.0 and result.f_high == 1.0

    def test_one_degenerate_mode(self):
        # Only one side of the threshold is a delta: that side's fidelity is
        # exactly 1 and the other's comes from its own fitted mode, as when
        # neither side is degenerate; a delta overlaps nothing.
        rng = np.random.default_rng(46)
        spread = np.clip(rng.normal(0.5, 0.05, 400), 0.36, 0.64)
        for threshold, delta, mode, side in ((0.35, 0.0, spread, -1.0),
                                             (0.45, 1.0, spread - 0.2, 1.0)):
            result = visibility(np.concatenate([np.full(300, delta), mode]), threshold)
            mean, std = float(np.mean(mode)), float(np.std(mode))
            expected = 0.5 * (1.0 + side * math.erf((threshold - mean) / (std * math.sqrt(2.0))))
            assert 0.9 < expected < 1.0
            degenerate, fitted = ((result.f_low, result.f_high) if side < 0
                                  else (result.f_high, result.f_low))
            assert degenerate == 1.0
            assert fitted == pytest.approx(expected, rel=1e-12)
            assert result.overlap == 0.0 and result.visibility == 1.0

    def test_two_resolved_modes(self):
        hist = simulate_nuclear_histogram(reads=100000, seed=43, **WELL_SEPARATED)
        centers, counts = hist.histogram()
        low_mass = counts[centers < 0.45].sum()
        high_mass = counts[centers > 0.45].sum()
        assert low_mass > 0.4 * counts.sum()
        assert high_mass > 0.4 * counts.sum()
        # Modes sit near their binomial means.
        assert abs(np.mean(hist.up_fractions[~hist.nuclear_up]) - 0.04) < 0.005
        assert abs(np.mean(hist.up_fractions[hist.nuclear_up]) - 0.85) < 0.005

    def test_bins_centre_on_each_fraction(self):
        # Bin k holds the reads with fraction k / shots_per_read and is
        # labelled with that fraction.
        hist = simulate_nuclear_histogram(reads=500, seed=45, **WELL_SEPARATED)
        centers, counts = hist.histogram()
        n = hist.shots_per_read
        assert np.array_equal(centers, np.arange(n + 1) / n)
        assert [int(k) for k in counts] == [
            np.count_nonzero(hist.up_fractions == c) for c in centers
        ]

    def test_deterministic_by_seed(self):
        a = simulate_nuclear_histogram(reads=500, seed=44, **WELL_SEPARATED)
        b = simulate_nuclear_histogram(reads=500, seed=44, **WELL_SEPARATED)
        assert np.array_equal(a.up_fractions, b.up_fractions)
        assert np.array_equal(a.nuclear_up, b.nuclear_up)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_nuclear_histogram(1.2, 0.0, 65, 100)
        with pytest.raises(ValueError):
            simulate_nuclear_histogram(0.5, 0.1, 0, 100)


class TestVisibility:
    def test_well_separated_bound(self):
        hist = simulate_nuclear_histogram(reads=100000, seed=45, **WELL_SEPARATED)
        result = visibility(hist, threshold=0.45)
        assert result.overlap < 5e-6
        assert result.visibility >= 0.999995

    def test_gaussian_fit_matches_label_oracle_when_separated(self):
        hist = simulate_nuclear_histogram(reads=100000, seed=46, **WELL_SEPARATED)
        threshold = 0.45
        label_f_low = np.mean(hist.up_fractions[~hist.nuclear_up] <= threshold)
        label_f_high = np.mean(hist.up_fractions[hist.nuclear_up] > threshold)
        label_visibility = label_f_low + label_f_high - 1.0
        result = visibility(hist, threshold)
        assert abs(result.visibility - label_visibility) < 1e-3

    def test_overlapping_modes_match_binomial_tails(self):
        # Exact tail sums for Binomial(65, 0.25) vs Binomial(65, 0.5) split
        # at fraction 0.375 (counts <= 24), frozen from an independent
        # evaluation.
        exact_f_low = 0.9886559981949625
        exact_f_high = 0.9768232628335444
        exact_visibility = 0.965479261028507
        hist = simulate_nuclear_histogram(0.5, 0.25, 65, 100000, seed=47)
        threshold = 0.375
        result = visibility(hist, threshold)
        assert result.visibility < 1.0
        low = hist.up_fractions[~hist.nuclear_up]
        high = hist.up_fractions[hist.nuclear_up]
        label_f_low = np.mean(low <= threshold)
        label_f_high = np.mean(high > threshold)
        sigma = math.sqrt(
            exact_f_low * (1 - exact_f_low) / len(low)
            + exact_f_high * (1 - exact_f_high) / len(high)
        )
        label_visibility = label_f_low + label_f_high - 1.0
        assert abs(label_visibility - exact_visibility) < 3.0 * sigma
        # The Gaussian surrogate tracks the exact binomial overlap closely
        # at this separation.
        assert abs(result.visibility - exact_visibility) < 0.02

    def test_threshold_classification_fields(self):
        hist = simulate_nuclear_histogram(reads=50000, seed=48, **WELL_SEPARATED)
        result = visibility(hist, threshold=0.45)
        assert 0.999 < result.f_low <= 1.0
        assert 0.999 < result.f_high <= 1.0
        assert result.mean_low < 0.45 < result.mean_high

    def test_non_bimodal_raises(self):
        hist = simulate_nuclear_histogram(0.9, 0.8, 65, 1000, seed=49)
        with pytest.raises(ValueError):
            visibility(hist, threshold=0.05)

    def test_accepts_plain_array(self):
        rng = np.random.default_rng(50)
        data = np.concatenate([rng.normal(0.1, 0.02, 5000), rng.normal(0.9, 0.02, 5000)])
        result = visibility(data, threshold=0.5)
        assert result.visibility > 0.999999

    @pytest.mark.parametrize("seed, kwargs, threshold", [
        (45, WELL_SEPARATED, 0.45),
        (46, WELL_SEPARATED, 0.45),
        (47, dict(p_up_given_nuclear_up=0.5, p_up_given_nuclear_down=0.25,
                  shots_per_read=65), 0.375),
        (48, WELL_SEPARATED, 0.45),
    ])
    def test_closed_form_overlap_matches_grid_integral(self, seed, kwargs, threshold):
        # The overlap is now integrated in closed form; the trapezoid rule on
        # 10 000 points over [0, 1] that it replaced agrees to 1e-6.
        reads = 50000 if seed == 48 else 100000
        result = visibility(simulate_nuclear_histogram(reads=reads, seed=seed, **kwargs),
                            threshold)
        grid = np.linspace(0.0, 1.0, 10_000)
        densities = [
            np.exp(-0.5 * ((grid - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            for m, s in ((result.mean_low, result.std_low),
                         (result.mean_high, result.std_high))
        ]
        grid_overlap = np.trapezoid(np.minimum(*densities), grid)
        assert abs(result.overlap - grid_overlap) < 1e-6
