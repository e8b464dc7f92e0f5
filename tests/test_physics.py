import math

import numpy as np
import pytest

from spindemon.config import ConfigError, build_experiment_config
from spindemon.physics import (
    PLANCK_UEV_PER_GHZ,
    RateSet,
    TunnelModelParams,
    bare_init_fidelity_from_chi,
    bare_init_fidelity_from_rates,
    build_rates,
    effective_temperature,
    fermi_occupation,
)

KB = 86.17333262
EZ = PLANCK_UEV_PER_GHZ * 28.0 * 1.423  # 1.423 T at 28 GHz/T, in ueV


def make_params(base=1.0, chi=0.388, mu=0.0, ez=EZ, t_e=0.26):
    return TunnelModelParams(
        base_rate_down=base,
        asymmetry=chi,
        donor_potential=mu,
        splitting=ez,
        temperature=t_e,
    )


class TestFermiOccupation:
    def test_midpoint(self):
        # Energies are measured from the Fermi level, where f = 1/2.
        for t in (0.001, 1.0, 100.0):
            assert fermi_occupation(0.0, t) == 0.5

    def test_saturation_limits_guarded(self):
        t_e = 0.001
        high = fermi_occupation(1e6, t_e)
        low = fermi_occupation(-1e6, t_e)
        assert 0.0 < high < 1e-100
        assert 1.0 - 1e-10 < low < 1.0  # never exactly 0 or 1

    def test_frozen_value(self):
        # Direct double-precision evaluation at the warm-reservoir point.
        assert fermi_occupation(-82.5, 2.95) == pytest.approx(0.5804286126155778, rel=1e-12)

    def test_particle_hole_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            t_e = 10 ** rng.uniform(-2, 1)
            e = rng.uniform(-300, 300)
            total = fermi_occupation(e, t_e) + fermi_occupation(-e, t_e)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        energies = np.linspace(-200, 200, 100)
        values = [fermi_occupation(e, 0.26) for e in energies]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fermi_occupation(math.nan, 1.0)

    def test_rejects_bad_temperature(self):
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                fermi_occupation(1.0, t)
        with pytest.raises(ValueError):
            make_params(t_e=0.0)


class TestZeeman:
    """The config's field keys give the splitting h * gamma * B."""

    @staticmethod
    def splitting(b_field):
        return build_experiment_config({"physics.b_field_t": b_field}).physics.splitting

    def test_field_value(self):
        # 1.423 T at 28 GHz/T sits just below 165 ueV.
        ez = self.splitting("1.423")
        assert ez == EZ
        assert ez == pytest.approx(164.7815, abs=1e-3)
        assert 0.5 * ez == pytest.approx(82.4, abs=0.05)

    def test_zero_field(self):
        # No splitting, no spin-selective loading: the rate model needs E_Z > 0.
        with pytest.raises(ConfigError):
            self.splitting("0")

    def test_one_tesla_in_kelvin(self):
        assert self.splitting("1.0") / KB == pytest.approx(1.3438, abs=1e-3)


class TestBuildRates:
    def test_zero_temperature_step(self):
        p = make_params(base=100.0, t_e=1e-3)
        r = build_rates(p)
        # Down level far below the Fermi sea, up level far above.
        assert r.out_down == pytest.approx(0.0, abs=1e-6)
        assert r.in_up == pytest.approx(0.0, abs=1e-6)
        assert r.out_up == pytest.approx(0.388 * 100.0, rel=1e-9)
        assert r.in_down == pytest.approx(100.0, rel=1e-9)

    def test_plunge_ratio_approaches_chi(self):
        p = make_params(mu=-20 * 164.78)
        r = build_rates(p)
        assert r.in_up / r.in_down == pytest.approx(0.388, rel=1e-6)

    def test_frozen_operating_point(self):
        # mu_D = 0, T = 260 mK, E_Z = 165 ueV, chi = 0.388, base rate chosen
        # so the loading total is 2700/s.  Expected values from an
        # independent algebraic solve of the occupation model.
        p = make_params(base=2741.1845662120572, ez=165.0)
        r = build_rates(p)
        assert r.in_total == pytest.approx(2700.0, rel=1e-9)
        assert r.in_up == pytest.approx(26.110476618101746, rel=1e-9)
        assert r.in_down == pytest.approx(2673.889523381898, rel=1e-9)
        assert r.out_up == pytest.approx(1037.4691350721764, rel=1e-9)
        assert r.out_down == pytest.approx(67.29504283015913, rel=1e-9)

    def test_requires_positive_splitting(self):
        for ez in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                make_params(ez=ez)


class TestBareFidelity:
    def test_symmetric_loading(self):
        r = RateSet(out_up=0.0, out_down=0.0, in_up=5.0, in_down=5.0)
        assert bare_init_fidelity_from_rates(r) == 0.5

    def test_deep_plunge_limit(self):
        # Equal occupations leave only the asymmetry: 1 / 1.388.
        r = RateSet(out_up=0.0, out_down=0.0, in_up=0.388, in_down=1.0)
        assert bare_init_fidelity_from_rates(r) == pytest.approx(1.0 / 1.388, rel=1e-12)
        assert bare_init_fidelity_from_rates(r) == pytest.approx(0.7205, abs=5e-5)

    def test_rates_and_chi_forms_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = make_params(
                base=10 ** rng.uniform(1, 4),
                chi=10 ** rng.uniform(-1, 0.5),
                mu=rng.uniform(-300, 300),
                t_e=10 ** rng.uniform(-1, 0.7),
            )
            from_rates = bare_init_fidelity_from_rates(build_rates(p))
            from_chi = bare_init_fidelity_from_chi(
                p.asymmetry, p.splitting, p.temperature, p.donor_potential
            )
            assert from_rates == pytest.approx(from_chi, abs=1e-12)

    def test_warm_and_cold_points(self):
        assert bare_init_fidelity_from_chi(0.388, 165.0, 2.95) == pytest.approx(0.781, abs=5e-4)
        assert bare_init_fidelity_from_chi(0.388, 165.0, 0.27) == pytest.approx(0.989, abs=5e-4)

    def test_symmetric_barrier_reduction(self):
        t_e = 1.3
        f_up = fermi_occupation(82.5, t_e)
        f_down = fermi_occupation(-82.5, t_e)
        expected = f_down / (f_down + f_up)
        assert bare_init_fidelity_from_chi(1.0, 165.0, t_e) == pytest.approx(
            expected, rel=1e-12
        )

    def test_both_loading_rates_zero(self):
        with pytest.raises(ValueError):
            bare_init_fidelity_from_rates(
                RateSet(out_up=1.0, out_down=1.0, in_up=0.0, in_down=0.0)
            )

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.05, 8.0, 40)
        values = [bare_init_fidelity_from_chi(0.388, 164.78, t) for t in temps]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEffectiveTemperature:
    EZ = 164.781543679424

    def closed_form(self, fidelity):
        # Independent inversion: at mu_D = 0 the occupation ratio is a pure
        # Boltzmann factor, so T = (E_Z / 2) / (k_B * x) with
        # x = -ln(((1 / F) - 1) / chi).
        x = -math.log((1.0 / fidelity - 1.0) / 0.388)
        return (self.EZ / 2.0) / (KB * x)

    def test_cold_point(self):
        t = effective_temperature(0.989, 0.388, self.EZ)
        assert t == pytest.approx(self.closed_form(0.989), abs=2e-4)
        assert t == pytest.approx(0.27, abs=0.01)
        # The tolerance is keyword-only: a fourth positional argument is
        # refused rather than read as a tolerance.
        fine = effective_temperature(0.989, 0.388, self.EZ, tolerance_k=1e-7)
        assert fine == pytest.approx(self.closed_form(0.989), abs=1e-6)
        with pytest.raises(TypeError):
            effective_temperature(0.989, 0.388, self.EZ, 0.0)

    def test_warm_point(self):
        t = effective_temperature(0.78, 0.388, self.EZ)
        assert t == pytest.approx(self.closed_form(0.78), abs=2e-4)
        assert t == pytest.approx(2.95, abs=0.05)

    def test_round_trip_identity(self):
        # Representable fidelities require chi * ratio > ~1e-16, i.e.
        # temperatures above about 30 mK for this splitting.
        for t_true in np.geomspace(0.03, 10.0, 25):
            f = bare_init_fidelity_from_chi(0.388, self.EZ, t_true)
            t_back = effective_temperature(f, 0.388, self.EZ)
            assert t_back == pytest.approx(t_true, abs=1e-4)

    def test_saturates_at_cap(self):
        target = 1.0 / 1.388 + 1e-12
        assert effective_temperature(target, 0.388, self.EZ) == 1000.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            effective_temperature(1.0 / 1.388 - 1e-6, 0.388, self.EZ)
        with pytest.raises(ValueError):
            effective_temperature(1.0, 0.388, self.EZ)


class TestRateSetValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RateSet(out_up=-1.0, out_down=0.0, in_up=0.0, in_down=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RateSet(out_up=math.inf, out_down=0.0, in_up=0.0, in_down=0.0)

    def test_in_total(self):
        r = RateSet(out_up=1.0, out_down=2.0, in_up=3.0, in_down=4.0)
        assert r.in_total == 7.0
