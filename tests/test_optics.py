"""Tests for Jones matrices, the symmetric lift and SU(3) elements."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import unitary_group

from triphot import optics, qutrit
from triphot.errors import NonUnitaryOperatorError
from triphot.optics import PlateSpec

SQRT2 = np.sqrt(2.0)


def symmetric_restriction(j):
    """Independent oracle: j (x) j restricted to the symmetric subspace in the
    normalized basis {e_xx, (e_xy + e_yx)/sqrt(2), e_yy}."""
    basis = np.zeros((4, 3), dtype=complex)
    basis[0, 0] = 1.0
    basis[1, 1] = basis[2, 1] = 1.0 / SQRT2
    basis[3, 2] = 1.0
    return basis.conj().T @ np.kron(j, j) @ basis


class TestRetarder:
    def test_zero_retardance_is_identity(self):
        for chi in (0.0, 0.3, 1.2):
            assert np.allclose(optics.retarder(0.0, chi), np.eye(2), atol=1e-15)

    # The next four freeze the sign convention that passes the quarter-wave
    # interference law; do not change them without re-running `triphot verify`.
    def test_half_wave_at_zero(self):
        assert np.allclose(optics.half_wave(0.0), np.diag([1j, -1j]), atol=1e-12)

    def test_quarter_wave_at_zero(self):
        expected = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        assert np.allclose(optics.quarter_wave(0.0), expected, atol=1e-12)

    def test_quarter_wave_at_45deg(self):
        expected = np.array([[1.0, 1j], [1j, 1.0]]) / SQRT2
        assert np.allclose(optics.retarder(np.pi / 2, np.pi / 4), expected, atol=1e-12)

    def test_half_wave_at_pi_over_8(self):
        expected = 1j * np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
        assert np.allclose(optics.half_wave(np.pi / 8), expected, atol=1e-12)

    def test_unitary_for_random_plates(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            j = optics.retarder(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            assert np.max(np.abs(j.conj().T @ j - np.eye(2))) < 1e-12


class TestSimpleElements:
    def test_rotator(self):
        assert np.allclose(optics.rotator(0.0), np.eye(2), atol=1e-15)
        assert np.allclose(optics.rotator(np.pi / 2), [[0, -1], [1, 0]], atol=1e-12)
        out = optics.rotator(np.pi / 4) @ np.array([1.0, 0.0])
        assert np.allclose(out, [1 / SQRT2, 1 / SQRT2], atol=1e-12)

    def test_polarizer(self):
        assert np.allclose(optics.polarizer("x") @ [1, 0], [1, 0])
        assert np.allclose(optics.polarizer("x") @ [0, 1], [0, 0])
        assert np.array_equal(optics.polarizer("y"), np.diag([0.0 + 0j, 1.0]))
        with pytest.raises(ValueError):
            optics.polarizer("z")


class TestPlateSpec:
    def test_canonicalization(self):
        spec = PlateSpec(retardance=2 * np.pi + 0.5, angle=np.pi + 0.25)
        assert abs(spec.retardance - 0.5) < 1e-12
        assert abs(spec.angle - 0.25) < 1e-12

    def test_tiny_negative_wraps_into_range(self):
        # -1e-20 % 2pi rounds to 2pi itself; the canonical ranges are half-open.
        spec = PlateSpec(retardance=-1e-20, angle=-1e-20)
        assert (spec.retardance, spec.angle) == (0.0, 0.0)
        assert PlateSpec(spec.retardance, spec.angle) == spec

    def test_wrap_folds_arrays_like_floats(self):
        values = np.array([-1e-20, -1e-16, 0.0, np.pi, 7.0])
        wrapped = optics.wrap(values, np.pi)
        assert wrapped.tolist() == [optics.wrap(float(v), np.pi) for v in values]
        assert wrapped[0] == wrapped[1] == wrapped[3] == 0.0
        assert np.all((wrapped >= 0.0) & (wrapped < np.pi))

    def test_constructors(self):
        assert abs(PlateSpec.half(0.1).retardance - np.pi) < 1e-15
        assert abs(PlateSpec.quarter(0.1).retardance - np.pi / 2) < 1e-15

    def test_jones_matches_retarder(self):
        spec = PlateSpec(1.1, 0.4)
        assert np.array_equal(spec.jones(), optics.retarder(1.1, 0.4))


class TestLift:
    def test_identity(self):
        assert np.allclose(optics.lift(np.eye(2)), np.eye(3), atol=1e-15)

    def test_half_wave_sends_minus_to_zero(self):
        out = optics.lift(optics.half_wave(np.pi / 8)) @ qutrit.trit_basis("minus")
        assert qutrit.states_equal(out, qutrit.trit_basis("zero"), tol=1e-12)

    def test_matches_tensor_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for j in unitary_group.rvs(2, size=1000, random_state=rng):
            worst = max(worst, np.max(np.abs(optics.lift(j) - symmetric_restriction(j))))
        assert worst < 1e-12

    def test_homomorphism(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            j1, j2 = unitary_group.rvs(2, size=2, random_state=rng)
            lhs = optics.lift(j2 @ j1)
            rhs = optics.lift(j2) @ optics.lift(j1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unitary_lift_has_unit_determinant_modulus(self):
        rng = np.random.default_rng(44)
        for j in unitary_group.rvs(2, size=100, random_state=rng):
            g = optics.lift(j)
            assert np.max(np.abs(g.conj().T @ g - np.eye(3))) < 1e-12
            assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-12

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            optics.lift(np.eye(3))


# Stacks (n, 2, 2) and (n, m, 2, 2) with entries of modulus at most 1, as
# for any passive Jones matrix.
_jones_stacks = hnp.arrays(
    complex,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=5).map(lambda lead: (*lead, 2, 2)),
    elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


class TestStackedLift:
    @given(_jones_stacks)
    def test_each_slice_is_the_single_lift(self, stack):
        lifted = optics.lift(stack)
        assert lifted.shape == stack.shape[:-2] + (3, 3)
        for index in np.ndindex(stack.shape[:-2]):
            assert np.max(np.abs(lifted[index] - optics.lift(stack[index]))) <= 1e-15

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (4, 2, 3)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="2x2"):
            optics.lift(np.zeros(shape, dtype=complex))


class TestApply:
    def test_identity(self):
        z = qutrit.trit_basis("zero")
        assert np.allclose(optics.apply(np.eye(3), z), z)

    def test_quarter_wave_sends_plus_to_zero(self):
        g = optics.lift(optics.quarter_wave(np.pi / 4))
        out = optics.apply(g, qutrit.trit_basis("plus"))
        assert qutrit.states_equal(out, qutrit.trit_basis("zero"), tol=1e-12)

    def test_quarter_wave_leaves_minus_invariant(self):
        g = optics.lift(optics.quarter_wave(np.pi / 4))
        out = optics.apply(g, qutrit.trit_basis("minus"))
        assert qutrit.states_equal(out, qutrit.trit_basis("minus"), tol=1e-12)

    def test_rejects_lossy_operator(self):
        with pytest.raises(NonUnitaryOperatorError):
            optics.apply(optics.lift(optics.polarizer("x")), qutrit.trit_basis("zero"))


class TestApplyConditioned:
    def test_x_polarizer_passes_xx(self):
        g = optics.lift(optics.polarizer("x"))
        state, survival = optics.apply_conditioned(g, qutrit.fock_basis(0))
        assert abs(survival - 1.0) < 1e-12
        assert qutrit.states_equal(state, qutrit.fock_basis(0))

    def test_x_polarizer_kills_psi_zero(self):
        g = optics.lift(optics.polarizer("x"))
        state, survival = optics.apply_conditioned(g, qutrit.trit_basis("zero"))
        assert state is None
        assert survival < 1e-30

    def test_x_polarizer_halves_psi_plus(self):
        g = optics.lift(optics.polarizer("x"))
        state, survival = optics.apply_conditioned(g, qutrit.trit_basis("plus"))
        assert abs(survival - 0.5) < 1e-12
        assert qutrit.states_equal(state, qutrit.fock_basis(0), tol=1e-12)

    def test_rejects_expanding_operator(self):
        with pytest.raises(ValueError):
            optics.apply_conditioned(2.0 * np.eye(3), qutrit.trit_basis("zero"))


class TestCompose:
    def test_identity_neutral(self):
        g = optics.lift(optics.half_wave(0.3))
        assert np.allclose(g @ np.eye(3), g)

    def test_half_wave_squares_to_identity_up_to_phase(self):
        for chi in (0.0, 0.2, np.pi / 8):
            g = optics.lift(optics.half_wave(chi))
            assert optics.phase_aligned_residual(g @ g, np.eye(3)) < 1e-12

    def test_matches_lift_of_product(self):
        j1, j2 = optics.half_wave(0.0), optics.half_wave(np.pi / 8)
        lhs = optics.lift(j2) @ optics.lift(j1)
        assert np.max(np.abs(lhs - optics.lift(j2 @ j1))) < 1e-12


class TestSu3:
    def test_zero_parameters_give_identity(self):
        assert np.allclose(optics.su3_exp(np.zeros(8)), np.eye(3), atol=1e-12)

    def test_lambda3_exponential(self):
        t = 0.7
        params = np.zeros(8)
        params[2] = t
        expected = np.diag([np.exp(1j * t), np.exp(-1j * t), 1.0])
        assert np.allclose(optics.su3_exp(params), expected, atol=1e-12)

    def test_random_elements_unitary_with_unit_det(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            g = optics.su3_exp(rng.uniform(-np.pi, np.pi, 8))
            assert np.max(np.abs(g.conj().T @ g - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(g) - 1.0) < 1e-10

    def test_bad_parameter_count(self):
        with pytest.raises(ValueError):
            optics.su3_exp(np.zeros(7))


class TestPlateSubgroupMembership:
    def test_lifted_unitaries_belong(self):
        rng = np.random.default_rng(99)
        for j in unitary_group.rvs(2, size=100, random_state=rng):
            assert optics.is_in_plate_subgroup(optics.lift(j))

    def test_global_phase_ignored(self):
        g = np.exp(0.7j) * optics.lift(optics.half_wave(0.3))
        assert optics.is_in_plate_subgroup(g)

    def test_identity_belongs(self):
        assert optics.is_in_plate_subgroup(np.eye(3, dtype=complex))

    def test_middle_phase_does_not_belong(self):
        g = np.diag([1.0, np.exp(1j * np.pi / 3), 1.0])
        assert not optics.is_in_plate_subgroup(g)

    def test_generic_su3_elements_do_not_belong(self):
        rng = np.random.default_rng(101)
        hits = 0
        for _ in range(20):
            g = optics.su3_exp(rng.uniform(-1.0, 1.0, 8))
            hits += optics.is_in_plate_subgroup(g)
        assert hits == 0
