"""Pulse-train simulator: propagators, state invariants, sum agreement."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussfactor.sums as sums
from gaussfactor import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Complete,
    FullTruncation,
    MagnetizationReading,
    PulseSequence,
    PulseSpec,
    Randomized,
    SpinState,
    SumSpec,
    apply_sequence,
    evaluate,
    phase_fraction,
    pulse_propagator,
    sample_without_replacement,
    simulate_experiment,
    small_angle_error,
    thermal_state,
)
from gaussfactor.ghost import N_TWELVE_DIGIT, WINDOW_TWELVE_DIGIT

FULL19 = SumSpec(FullTruncation(19))
FACTOR_L = 1299709
NONFACTOR_L = 1299713

angles = st.floats(min_value=1e-6, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=math.tau, exclude_max=True)


class TestPulsePropagator:
    def test_pi_pulse_about_x(self):
        u = pulse_propagator(PulseSpec(math.pi, 0.0))
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-15)

    def test_half_pi_pulse_about_y(self):
        u = pulse_propagator(PulseSpec(math.pi / 2, math.pi / 2))
        want = math.cos(math.pi / 4) * np.eye(2) - 1j * math.sin(math.pi / 4) * SIGMA_Y
        assert np.allclose(u, want, atol=1e-15)

    def test_small_angle_approaches_identity(self):
        u = pulse_propagator(PulseSpec(1e-9, 1.0))
        assert np.allclose(u, np.eye(2), atol=1e-8)

    @given(theta=angles, phase=phases)
    @settings(max_examples=150)
    def test_always_unitary(self, theta, phase):
        u = pulse_propagator(PulseSpec(theta, phase))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12

    def test_pulse_spec_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            PulseSpec(-0.1, 0.0)
        assert PulseSpec(1.0, -math.pi / 2).phase == pytest.approx(3 * math.pi / 2)


class TestSpinState:
    def test_thermal_default_is_pure_up(self):
        st_ = thermal_state()
        assert np.allclose(st_.rho, np.diag([1.0, 0.0]), atol=1e-15)
        assert st_.expectation(SIGMA_Z / 2) == pytest.approx(0.5)

    def test_thermal_zero_polarization_is_maximally_mixed(self):
        assert np.allclose(thermal_state(0.0).rho, np.eye(2) / 2, atol=1e-15)

    def test_polarization_bounds(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1)
        with pytest.raises(ValueError):
            thermal_state(1.1)

    def test_rejects_invalid_density_matrices(self):
        with pytest.raises(ValueError):
            SpinState(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            SpinState(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(ValueError):
            SpinState(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValueError):
            SpinState(np.eye(3) / 3)


class TestApplySequence:
    def test_empty_train_is_identity(self):
        initial = thermal_state()
        out = apply_sequence(PulseSequence(()), initial)
        assert np.array_equal(out.rho, initial.rho)

    def test_factor_train_composes_on_one_axis(self):
        # every pulse phase is 0, so the train is one rotation by
        # (M+1)*theta and the transverse readout is sin((M+1)*theta)/2
        theta = 0.002
        seq = PulseSequence.from_sum_spec(N_TWELVE_DIGIT, FACTOR_L, FULL19, theta)
        out = apply_sequence(seq, thermal_state())
        my = out.expectation(SIGMA_Y / 2)
        mx = out.expectation(SIGMA_X / 2)
        want = 0.5 * math.sin(20 * theta)
        assert math.hypot(mx, my) == pytest.approx(want, abs=1e-15)

    def test_requires_spin_state(self):
        with pytest.raises(ValueError):
            apply_sequence(PulseSequence(()), np.eye(2) / 2)  # type: ignore[arg-type]

    @given(
        thetas=st.lists(st.floats(min_value=1e-4, max_value=0.3), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_output_state_stays_physical(self, thetas, data):
        pulses = tuple(
            PulseSpec(t, data.draw(phases)) for t in thetas
        )
        out = apply_sequence(PulseSequence(pulses), thermal_state())
        # construction revalidates; check the transverse bound directly too
        mx = out.expectation(SIGMA_X / 2)
        my = out.expectation(SIGMA_Y / 2)
        assert math.hypot(mx, my) <= 0.5 + 1e-12


class TestFromSumSpec:
    def test_full_truncation_phases(self):
        seq = PulseSequence.from_sum_spec(15, 4, SumSpec(FullTruncation(6)), 0.01)
        assert len(seq) == 7
        for m, pulse in enumerate(seq.pulses):
            want = math.tau * phase_fraction(m, 2, 15, 4).as_real
            assert pulse.phase == pytest.approx(want, abs=1e-15)
            assert pulse.theta == 0.01

    def test_randomized_keeps_draw_order(self):
        spec = SumSpec(Randomized(8, 100, 21))
        seq = PulseSequence.from_sum_spec(15, 7, spec, 0.01)
        ms = sample_without_replacement(8, 100, 21)
        assert len(seq) == 8
        for m, pulse in zip(ms, seq.pulses):
            want = math.tau * phase_fraction(m, 2, 15, 7).as_real
            assert pulse.phase == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            SumSpec(FullTruncation(40), order=3),
            SumSpec(Complete()),
            SumSpec(Randomized(25, 500, 4)),
        ],
        ids=["full", "complete", "randomized"],
    )
    def test_train_follows_strategy_terms_and_kernel(self, spec):
        N, l = N_TWELVE_DIGIT, 1013
        terms = spec.strategy.terms(l)
        seq = PulseSequence.from_sum_spec(N, l, spec, 1e-4)
        assert len(terms) == evaluate(N, l, spec).term_count == len(seq)
        kernel = list(sums._residue_phases(N, l, spec.order, terms))
        assert [pulse.phase for pulse in seq.pulses] == kernel


class TestSimulateExperiment:
    def test_factor_reads_exactly_one(self):
        r = simulate_experiment(N_TWELVE_DIGIT, FACTOR_L, FULL19, 0.002)
        assert r.normalized_signal == pytest.approx(1.0, abs=1e-12)
        assert small_angle_error(N_TWELVE_DIGIT, FACTOR_L, FULL19, 0.002) < 1e-12

    def test_window_agrees_with_analytic_sum(self):
        theta = 0.05 / 20  # total angle at the small-angle contract edge
        lo, hi = WINDOW_TWELVE_DIGIT
        for l in range(lo, hi + 1, 4):
            assert small_angle_error(N_TWELVE_DIGIT, l, FULL19, theta) < 1e-3

    def test_error_is_second_order_in_theta(self):
        e1 = small_angle_error(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.002)
        e2 = small_angle_error(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.001)
        assert e2 < e1
        assert 3.5 < e1 / e2 < 4.5

    def test_half_unit_total_angle_still_tracks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e = small_angle_error(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.5 / 20)
        assert e < 5e-2

    def test_large_total_angle_warns(self):
        with pytest.warns(UserWarning, match="total flip angle"):
            simulate_experiment(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.6 / 20)

    def test_rejects_meaningless_angles(self):
        with pytest.raises(ValueError):
            simulate_experiment(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.1)
        with pytest.raises(ValueError):
            simulate_experiment(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.0)

    def test_randomized_readout_deterministic(self):
        spec = SumSpec(Randomized(10, 1000, 3))
        a = simulate_experiment(N_TWELVE_DIGIT, 1299711, spec, 0.01)
        b = simulate_experiment(N_TWELVE_DIGIT, 1299711, spec, 0.01)
        assert a == b

    def test_normalized_signal_bounded(self):
        for l in (1299702, 1299711, 1299725):
            r = simulate_experiment(N_TWELVE_DIGIT, l, FULL19, 0.0025)
            assert 0.0 <= r.normalized_signal <= 1.0 + 1e-9

    def test_reading_guards(self):
        with pytest.raises(ValueError):
            MagnetizationReading(0.5, 0.3, 0.6, 0.9)
        with pytest.raises(ValueError):
            MagnetizationReading(0.1, 0.1, 0.2, 1.5)
