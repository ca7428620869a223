"""Tests for Stokes parameters, correlators and detection probabilities."""

import numpy as np
import pytest

from triphot import observables, optics, qutrit

SQRT2 = np.sqrt(2.0)

# Ladder-operator matrices over (|2,0>, |1,1>, |0,2>), built from the matrix
# elements of a_x^dag a_y and the number operators.  These drive the
# independent expectation-value oracles below.
N_X = np.diag([2.0, 1.0, 0.0]).astype(complex)
N_Y = np.diag([0.0, 1.0, 2.0]).astype(complex)
A_XDAG_AY = np.array([[0, SQRT2, 0], [0, 0, SQRT2], [0, 0, 0]], dtype=complex)


def stokes_oracle(s):
    def expect(op):
        return float(np.vdot(s, op @ s).real)

    cross = complex(np.vdot(s, A_XDAG_AY @ s))
    return (
        expect(N_X + N_Y),
        expect(N_X - N_Y),
        2.0 * cross.real,
        2.0 * cross.imag,
    )


def correlator_oracle(s):
    def expect(op):
        return float(np.vdot(s, op @ s).real)

    return (
        expect(N_X @ N_Y),
        expect(N_X @ (N_X - np.eye(3))),
        expect(N_Y @ (N_Y - np.eye(3))),
    )


def random_state(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z / np.sqrt(float(np.vdot(z, z).real))


class TestStokes:
    def test_xx_state(self):
        assert np.allclose(observables.stokes(qutrit.fock_basis(0)), (2, 2, 0, 0), atol=1e-12)

    def test_trit_states_unpolarized(self):
        for label in qutrit.TRIT_LABELS:
            vec = observables.stokes(qutrit.trit_basis(label))
            assert np.allclose(vec, (2, 0, 0, 0), atol=1e-12)

    def test_matches_operator_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            s = random_state(rng)
            assert np.allclose(observables.stokes(s), stokes_oracle(s), atol=1e-12)

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0], [np.inf, 0, 0]])
    def test_nonfinite_state_rejected_as_in_a_stack(self, bad):
        state = np.array(bad, dtype=complex)
        for s in (state, state[None, :]):
            with pytest.raises(ValueError, match="not normalized"):
                observables.stokes(s)

    def test_reduced_vector_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            vec = observables.stokes(random_state(rng))
            assert vec.s1**2 + vec.s2**2 + vec.s3**2 <= vec.s0**2 + 1e-9


class TestDegreeOfPolarization:
    def test_fock_extremes(self):
        assert abs(observables.degree_of_polarization(qutrit.fock_basis(0)) - 1.0) < 1e-12
        assert abs(observables.degree_of_polarization(qutrit.fock_basis(2)) - 1.0) < 1e-12

    def test_trit_states_zero(self):
        for label in qutrit.TRIT_LABELS:
            assert observables.degree_of_polarization(qutrit.trit_basis(label)) < 1e-12

    def test_equal_weight_state(self):
        s = qutrit.make_state(1, 1, 1)
        expected = 2.0 * SQRT2 / 3.0
        assert abs(observables.degree_of_polarization(s) - expected) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            s = random_state(rng)
            s0, s1, s2, s3 = stokes_oracle(s)
            expected = np.sqrt(s1**2 + s2**2 + s3**2) / s0
            assert abs(observables.degree_of_polarization(s) - expected) < 1e-12

    def test_invariant_under_plate_sequences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            s = random_state(rng)
            g = np.eye(3, dtype=complex)
            for _ in range(int(rng.integers(1, 6))):
                g = optics.lift(
                    optics.retarder(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
                ) @ g
            delta = abs(
                observables.degree_of_polarization(optics.apply(g, s))
                - observables.degree_of_polarization(s)
            )
            worst = max(worst, delta)
        assert worst < 1e-10

    def test_some_su3_element_changes_p(self):
        # plates cannot reach all of SU(3): a generator mixing |1,1> with
        # |2,0> polarizes psi_zero
        params = np.zeros(8)
        params[1] = np.pi / 4
        g = optics.su3_exp(params)
        before = observables.degree_of_polarization(qutrit.trit_basis("zero"))
        after = observables.degree_of_polarization(optics.apply(g, qutrit.trit_basis("zero")))
        assert abs(after - before) > 0.1


class TestStacks:
    def test_stack_bit_identical_to_one_state_calls(self):
        # includes Fock and trit states, whose weights hit exact squares
        rng = np.random.default_rng(11)
        states = [random_state(rng) for _ in range(2998)]
        states += [qutrit.fock_basis(0), qutrit.trit_basis("minus")]
        stack = np.array(states).reshape(2, 1500, 3)
        vec = observables.stokes(stack)
        p = observables.degree_of_polarization(stack)
        assert p.shape == vec.s1.shape == (2, 1500)
        one = [observables.stokes(s) for s in states]
        for k in (1, 2, 3):
            assert np.array_equal(vec[k].ravel(), [v[k] for v in one])
        assert np.array_equal(p.ravel(), [observables.degree_of_polarization(s) for s in states])

    def test_scalar_call_returns_floats(self):
        assert type(observables.degree_of_polarization(qutrit.fock_basis(2))) is float

    def test_one_unnormalized_state_rejects_the_stack(self):
        stack = np.array([qutrit.fock_basis(k) for k in range(3)])
        stack[1] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match="not normalized"):
            observables.degree_of_polarization(stack)
        with pytest.raises(ValueError, match=r"\[\.\.\., 3\] stack"):
            observables.stokes(np.zeros((4, 2), dtype=complex))


class TestCorrelators:
    def test_psi_zero(self):
        assert np.allclose(observables.correlators(qutrit.trit_basis("zero")), (1, 0, 0), atol=1e-12)

    def test_xx_state(self):
        assert np.allclose(observables.correlators(qutrit.fock_basis(0)), (0, 2, 0), atol=1e-12)

    def test_psi_plus(self):
        assert np.allclose(observables.correlators(qutrit.trit_basis("plus")), (0, 1, 1), atol=1e-12)

    def test_matches_operator_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s = random_state(rng)
            assert np.allclose(observables.correlators(s), correlator_oracle(s), atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            gxy, gxx, gyy = observables.correlators(random_state(rng))
            assert abs(gxx / 2 + gxy + gyy / 2 - 1.0) < 1e-12


class TestCoincidenceProbability:
    def test_psi_zero_direct(self):
        p = observables.coincidence_probability(qutrit.trit_basis("zero"), "direct_xy", 1.0, 1.0)
        assert abs(p - 1.0) < 1e-12

    def test_xx_through_analysis_x(self):
        p = observables.coincidence_probability(qutrit.fock_basis(0), "analysis_x", 1.0, 1.0)
        assert abs(p - 0.5) < 1e-12

    def test_psi_zero_through_analysis_x(self):
        p = observables.coincidence_probability(qutrit.trit_basis("zero"), "analysis_x", 0.7, 0.9)
        assert p == 0.0

    def test_linear_in_efficiencies(self):
        s = qutrit.make_state(0.3, 0.8j, -0.4)
        base = observables.coincidence_probability(s, "direct_xy", 1.0, 1.0)
        assert abs(observables.coincidence_probability(s, "direct_xy", 0.25, 1.0) - 0.25 * base) < 1e-15
        assert abs(observables.coincidence_probability(s, "direct_xy", 0.5, 0.4) - 0.2 * base) < 1e-15

    def test_analysis_closed_form(self):
        # the polarizer/half-wave chain reduces to |c1|^2/2 (or |c3|^2/2)
        rng = np.random.default_rng(15)
        for _ in range(300):
            s = random_state(rng)
            eta1, eta2 = rng.uniform(0, 1, 2)
            px = observables.coincidence_probability(s, "analysis_x", eta1, eta2)
            py = observables.coincidence_probability(s, "analysis_y", eta1, eta2)
            assert abs(px - abs(s[0]) ** 2 / 2 * eta1 * eta2) < 1e-12
            assert abs(py - abs(s[2]) ** 2 / 2 * eta1 * eta2) < 1e-12

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            observables.coincidence_probability(qutrit.trit_basis("zero"), "direct_xy", 1.5, 1.0)
        with pytest.raises(ValueError):
            observables.coincidence_probability(qutrit.trit_basis("zero"), "direct_xy", 1.0, -0.1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            observables.coincidence_probability(qutrit.trit_basis("zero"), "sideways", 1.0, 1.0)


class TestCoherenceLength:
    def test_red_filtered_pairs(self):
        assert abs(observables.coherence_length(650e-9, 10e-9) - 4.225e-5) < 1e-17

    def test_unit_values(self):
        assert observables.coherence_length(1.0, 1.0) == 1.0

    def test_uv_pump(self):
        assert abs(observables.coherence_length(325e-9, 1e-9) - 1.05625e-4) < 1e-16

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            observables.coherence_length(650e-9, 0.0)
