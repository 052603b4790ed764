"""Pulse-train simulator: propagators, state invariants, sum agreement."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussfactor._blocks as _blocks
import gaussfactor.spinsim as spinsim
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
    complete_gauss_sum,
    evaluate,
    phase_fraction,
    pulse_propagator,
    sample_without_replacement,
    simulate_experiment,
    small_angle_error,
    thermal_state,
)
from gaussfactor.cli import main
from gaussfactor.ghost import N_SEVENTEEN_DIGIT, N_TWELVE_DIGIT, WINDOW_TWELVE_DIGIT
from oracles import train_rotation

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

    @given(
        a=st.floats(-1e3, 1e3),
        d=st.floats(-1e3, 1e3),
        off=st.complex_numbers(max_magnitude=1e3),
    )
    @settings(max_examples=500, derandomize=True)
    def test_closed_form_eigenvalues_match_eigvalsh(self, a, d, off):
        rho = np.array([[a, off.conjugate()], [off, d]])
        got = spinsim._hermitian_eigenvalues(rho)
        gap = np.abs(got - np.linalg.eigvalsh(rho)).max()
        assert gap <= 4e-15 * np.abs(rho).max()


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

    @given(
        pulses=st.lists(st.tuples(angles, phases), min_size=1, max_size=64),
        polarization=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_matches_the_ordered_matrix_product(self, pulses, polarization):
        seq = PulseSequence(tuple(PulseSpec(t, ph) for t, ph in pulses))
        initial = thermal_state(polarization)
        u = np.eye(2, dtype=complex)
        for pulse in seq.pulses:
            u = pulse_propagator(pulse) @ u
        want = u @ initial.rho @ u.conj().T
        got = apply_sequence(seq, initial).rho
        assert np.abs(got - want).max() <= 1e-14


def _hexes(a: complex, b: complex) -> list[str]:
    return [float.hex(x) for x in (a.real, a.imag, b.real, b.imag)]


@st.composite
def _train_lengths(draw, rows: int) -> int:
    """1 to two blocks of `rows` pulses and two more, often at 2**k, 2**k +- 1 or a block's edge."""
    top = 2 * rows + 2
    near_power = st.builds(
        lambda k, d: max(1, 2**k + d),
        st.integers(0, (top - 1).bit_length() - 1), st.integers(-1, 1),
    )
    edges = st.sampled_from([rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, top - 1, top])
    return draw(st.one_of(st.integers(1, top), st.integers(rows, top), near_power, edges))


class TestLevelKernel:
    """The level-at-a-time tree holds the one-pulse-at-a-time loop's bits."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_lockstep_trains_match_the_reference_loop(self, data):
        trains = data.draw(st.integers(1, 40), label="trains")
        # a lockstep block holds this many pulses of every train
        rows = sums._WALK_TERMS // trains
        length = data.draw(_train_lengths(rows), label="length")
        order = data.draw(st.integers(2, 5), label="order")
        theta = data.draw(st.floats(1e-8, 3.0), label="theta")
        N, lo = data.draw(st.one_of(
            # a window holding the factor 1299709, whose phases are all 0
            st.integers(0, trains - 1).map(lambda k: (N_TWELVE_DIGIT, FACTOR_L - k)),
            st.integers(2, 10**7).map(lambda lo: (N_TWELVE_DIGIT, lo)),
            # l up to 2**32 and past it, on the exact-int phase path
            st.integers(0, trains).map(lambda k: (N_SEVENTEEN_DIGIT, 2**32 - k)),
        ), label="N, lo")
        ls, ms = range(lo, lo + trains), range(length)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        phases = _blocks._lockstep_phases([N % l for l in ls], ls, order, ms)
        blocks = ((c, s, block) for block in phases)
        got = _blocks._train_rotations(blocks, trains)
        for l, a, b in zip(ls, *got):
            pulses = ((c, s, phase) for phase in sums._residue_phases(N, l, order, ms))
            assert _hexes(a, b) == _hexes(*train_rotation(pulses)), l

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_apply_sequence_matches_the_reference_loop(self, data):
        # a pulse's own theta sets its cos and sin, negative past theta = pi;
        # the block width is drawn too, as any width must build the same tree
        width = data.draw(st.sampled_from([2, 3, 5, 8, 64, sums._WALK_TERMS]), label="width")
        length = data.draw(_train_lengths(width), label="length")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
        thetas = rng.uniform(1e-6, 2 * math.pi, length).tolist()
        # eighth turns, or phase 0 throughout, as a factor's train: signed zeros
        eighths = data.draw(st.sampled_from([1, 8]), label="eighths")
        turns = (rng.integers(0, eighths, length) * (math.pi / 4)).tolist()
        seq = PulseSequence(tuple(map(PulseSpec, thetas, turns)))
        kernel, rotations = _blocks._train_rotations, []

        def spy(blocks, trains):
            rotations.append(kernel(blocks, trains))
            return rotations[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spinsim, "_WALK_TERMS", width)
            patch.setattr(_blocks, "_train_rotations", spy)
            apply_sequence(seq, thermal_state())
        ((a,), (b,)), = rotations
        pulses = ((math.cos(p.theta / 2), math.sin(p.theta / 2), p.phase) for p in seq.pulses)
        assert _hexes(a, b) == _hexes(*train_rotation(pulses))


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

    def test_long_train_keeps_its_trace(self):
        # 65537 pulses: a per-pulse matrix product drifts about 1.5e-12 off
        # a trace of 1 here and used to fail the state check
        theta, l = 1e-6, 65537
        r = simulate_experiment(N_TWELVE_DIGIT, l, SumSpec(Complete()), theta)
        analytic = complete_gauss_sum(N_TWELVE_DIGIT, l).magnitude
        assert abs(r.normalized_signal - analytic) <= (theta * l) ** 2 + 1e-9

    def test_drifted_rotation_is_refused(self, monkeypatch, capsys):
        # a pair of norm 1 + 1e-9 is a final state of trace 1 + 1e-9; every
        # train takes the numpy kernel, whose pairs are drifted here
        drifted = (math.sqrt(1 + 1e-9) + 0j, 0j)
        monkeypatch.setattr(sums, "_SCALAR_TERMS", 0)
        monkeypatch.setattr(
            _blocks, "_train_rotations",
            lambda blocks, trains: ([drifted[0]] * trains, [drifted[1]] * trains),
        )
        with pytest.raises(ValueError, match="trace"):
            simulate_experiment(N_TWELVE_DIGIT, NONFACTOR_L, FULL19, 0.002)
        code = main([
            "simulate", "--n", str(N_TWELVE_DIGIT), "--l", str(NONFACTOR_L),
            "--truncation", "19", "--theta", "0.002",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("domain error: density matrix trace ")
        assert "Traceback" not in err

    def test_drifted_trial_of_a_window_is_named(self, monkeypatch, capsys):
        # the window's trains run in lockstep; the sixth one drifts, and the
        # error names its l after the five readings before it pass
        kernel = _blocks._train_rotations

        def drift_sixth(blocks, trains):
            a, b = kernel(blocks, trains)
            a[5] *= math.sqrt(1 + 1e-9)
            return a, b

        monkeypatch.setattr(sums, "_SCALAR_TERMS", 0)
        monkeypatch.setattr(_blocks, "_train_rotations", drift_sixth)
        code = main([
            "simulate", "--n", str(N_TWELVE_DIGIT), "--window", "1299700:1299720",
            "--truncation", "19", "--theta", "0.002",
        ])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("domain error: density matrix trace ")
        assert err.endswith(f"(N={N_TWELVE_DIGIT}, l=1299705)\n")

    def test_reading_guards(self):
        with pytest.raises(ValueError):
            MagnetizationReading(0.5, 0.3, 0.6, 0.9)
        with pytest.raises(ValueError):
            MagnetizationReading(0.1, 0.1, 0.2, 1.5)
