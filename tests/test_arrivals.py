"""Property tests for the serving arrival generators (repro.serving.arrivals).

The generators are pure functions of ``(spec, num_requests, seed)``; these
tests pin the statistical contract of each process (rate, square-wave
predicate, exact burst mass) and the bit-identical same-seed reproducibility
the serving engine's replay tests stand on.
"""

import numpy as np
import pytest

from repro.serving.arrivals import (
    ARRIVALS,
    PHASE_LABELS,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    ServingSpec,
    build_arrivals,
)


def _generate(spec, n, seed):
    return build_arrivals(spec).generate(n, seed)


class TestPoisson:
    def test_rate_within_tolerance(self):
        spec = ServingSpec(arrival="poisson", rate_rps=1000.0)
        times, _ = _generate(spec, 4000, seed=0)
        empirical = len(times) / times[-1]
        assert abs(empirical - spec.rate_rps) / spec.rate_rps < 0.10

    def test_sorted_positive_single_phase(self):
        spec = ServingSpec(arrival="poisson", rate_rps=500.0)
        times, phases = _generate(spec, 512, seed=3)
        assert times.shape == phases.shape == (512,)
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)
        assert not phases.any()  # a steady stream has no peak phase


class TestDiurnal:
    SPEC = ServingSpec(arrival="diurnal", rate_rps=2000.0, period_s=0.05,
                       duty=0.5, trough_fraction=0.25)

    def test_phases_match_square_wave_predicate(self):
        times, phases = _generate(self.SPEC, 1024, seed=1)
        # peak iff (t % period) < duty * period — the CongestionSpec predicate.
        predicate = (times % self.SPEC.period_s) < self.SPEC.duty * self.SPEC.period_s
        np.testing.assert_array_equal(phases.astype(bool), predicate)

    def test_period_and_duty_honored(self):
        times, phases = _generate(self.SPEC, 2048, seed=2)
        assert np.all(np.diff(times) >= 0)
        # rate 2000 during 50% of each period vs 500 during the rest: the peak
        # phase must carry ~80% of the arrivals (2000/(2000+500)).
        peak_share = phases.mean()
        assert 0.7 < peak_share < 0.9

    def test_exact_request_count(self):
        times, phases = _generate(self.SPEC, 777, seed=4)
        assert len(times) == len(phases) == 777


class TestFlashCrowd:
    SPEC = ServingSpec(arrival="flash-crowd", rate_rps=1000.0,
                       burst_fraction=0.3, burst_start_fraction=0.5,
                       burst_duration_fraction=0.05)

    def test_burst_mass_conserved_exactly(self):
        for n in (64, 256, 1000):
            _, phases = _generate(self.SPEC, n, seed=5)
            assert int(phases.sum()) == int(round(n * self.SPEC.burst_fraction))

    def test_burst_confined_to_window(self):
        times, phases = _generate(self.SPEC, 512, seed=6)
        base = times[phases == 0]
        horizon = base[-1] if len(base) else 512 / self.SPEC.rate_rps
        lo = self.SPEC.burst_start_fraction * horizon
        hi = lo + self.SPEC.burst_duration_fraction * horizon
        burst = times[phases == 1]
        assert np.all(burst >= lo) and np.all(burst <= hi)

    def test_merged_stream_sorted(self):
        times, _ = _generate(self.SPEC, 512, seed=7)
        assert np.all(np.diff(times) >= 0)


class TestDeterminism:
    @pytest.mark.parametrize("arrival", ["poisson", "diurnal", "flash-crowd"])
    def test_same_seed_bit_identical(self, arrival):
        spec = ServingSpec(arrival=arrival, rate_rps=1200.0)
        t1, p1 = _generate(spec, 300, seed=42)
        t2, p2 = _generate(spec, 300, seed=42)
        assert np.array_equal(t1, t2) and np.array_equal(p1, p2)

    @pytest.mark.parametrize("arrival", ["poisson", "diurnal", "flash-crowd"])
    def test_different_seed_differs(self, arrival):
        spec = ServingSpec(arrival=arrival, rate_rps=1200.0)
        t1, _ = _generate(spec, 300, seed=42)
        t2, _ = _generate(spec, 300, seed=43)
        assert not np.array_equal(t1, t2)


class TestServingSpec:
    def test_registry_resolution_and_aliases(self):
        assert isinstance(build_arrivals(ServingSpec(arrival="poisson")), PoissonArrivals)
        assert isinstance(build_arrivals(ServingSpec(arrival="steady")), PoissonArrivals)
        assert isinstance(build_arrivals(ServingSpec(arrival="square-wave")), DiurnalArrivals)
        assert isinstance(build_arrivals(ServingSpec(arrival="burst")), FlashCrowdArrivals)
        assert ServingSpec(arrival="flash").arrival == "flash-crowd"

    def test_unknown_arrival_rejected_with_names(self):
        with pytest.raises(ValueError, match="poisson"):
            ServingSpec(arrival="sawtooth")

    @pytest.mark.parametrize("bad", [
        dict(rate_rps=0.0),
        dict(rate_rps=-1.0),
        dict(num_requests=0),
        dict(slo_ms=0.0),
        dict(zipf_alpha=-0.1),
        dict(period_s=0.0),
        dict(duty=0.0),
        dict(duty=1.0),
        dict(trough_fraction=1.5),
        dict(burst_fraction=0.0),
        dict(burst_fraction=1.0),
        dict(burst_start_fraction=-0.1),
        dict(burst_duration_fraction=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServingSpec(**bad)

    def test_with_overrides_ignores_none(self):
        spec = ServingSpec(rate_rps=1500.0, slo_ms=5.0)
        same = spec.with_overrides(rate_rps=None, slo_ms=None)
        assert same == spec
        bumped = spec.with_overrides(rate_rps=3000.0, num_requests=None)
        assert bumped.rate_rps == 3000.0 and bumped.num_requests == spec.num_requests

    def test_describe(self):
        assert ServingSpec(arrival="poisson", rate_rps=1500.0).describe() == "poisson(1500 rps)"
        assert "1500↔375" in ServingSpec(arrival="diurnal", rate_rps=1500.0,
                                         trough_fraction=0.25).describe()
        assert "burst=30%" in ServingSpec(arrival="flash-crowd",
                                          burst_fraction=0.3).describe()

    def test_registry_surface(self):
        assert {"poisson", "diurnal", "flash-crowd"} <= set(ARRIVALS.names())
        assert PHASE_LABELS[0] == "steady" and PHASE_LABELS[1] == "peak"
