"""Tests for states, bases and inner products."""

import numpy as np
import pytest

from triphot import optics, qutrit
from triphot.errors import ZeroStateError

SQRT2 = np.sqrt(2.0)


class TestMakeState:
    def test_already_normalized(self):
        s = qutrit.make_state(1, 0, 0)
        assert np.allclose(s, [1, 0, 0], atol=1e-15)

    def test_symmetric_pair(self):
        s = qutrit.make_state(1, 0, 1)
        assert np.allclose(s, [1 / SQRT2, 0, 1 / SQRT2], atol=1e-15)

    def test_global_phase_survives_normalization(self):
        s = qutrit.make_state(2j, 0, 0)
        assert np.allclose(s, [1j, 0, 0], atol=1e-15)
        assert qutrit.states_equal(s, qutrit.fock_basis(0))

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroStateError):
            qutrit.make_state(0, 0, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            qutrit.make_state(np.nan, 0, 0)

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_overflowing_norm_rejected(self, big):
        # the squared norm overflows; dividing by sqrt(inf) would give zeros
        with pytest.raises(ValueError, match="overflows"):
            qutrit.make_state(big, big, 0)

    def test_large_finite_norm_kept(self):
        assert np.allclose(qutrit.make_state(1e150, 1e150, 0), [SQRT2 / 2, SQRT2 / 2, 0])

    def test_random_inputs_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            s = qutrit.make_state(*z)
            assert abs(np.vdot(s, s).real - 1.0) < 1e-12


class TestBases:
    @pytest.mark.parametrize("k,expected", [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])])
    def test_fock(self, k, expected):
        assert np.array_equal(qutrit.fock_basis(k), np.array(expected, dtype=complex))

    def test_fock_out_of_range(self):
        with pytest.raises(IndexError):
            qutrit.fock_basis(3)

    def test_trit_values(self):
        assert np.allclose(qutrit.trit_basis("plus"), [1 / SQRT2, 0, 1 / SQRT2])
        assert np.allclose(qutrit.trit_basis("minus"), [1 / SQRT2, 0, -1 / SQRT2])
        assert np.allclose(qutrit.trit_basis("zero"), [0, 1, 0])

    def test_trit_orthonormal(self):
        basis = [qutrit.trit_basis(label) for label in qutrit.TRIT_LABELS]
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_bad_label(self):
        with pytest.raises(ValueError):
            qutrit.trit_basis("up")

    def test_digit_bijection(self):
        assert qutrit.TRIT_DIGITS == {"plus": 0, "minus": 1, "zero": 2}
        assert tuple(qutrit.TRIT_DIGITS) == qutrit.TRIT_LABELS


class TestOverlap:
    def test_orthogonal_trits(self):
        assert abs(qutrit.overlap(qutrit.trit_basis("plus"), qutrit.trit_basis("minus"))) < 1e-15

    def test_self_overlap(self):
        z = qutrit.trit_basis("zero")
        assert abs(qutrit.overlap(z, z) - 1.0) < 1e-15

    def test_fock_trit_overlap(self):
        value = qutrit.overlap(qutrit.fock_basis(0), qutrit.trit_basis("plus"))
        assert abs(value - 1 / SQRT2) < 1e-15

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            qutrit.overlap(np.array([1.0, 1.0, 0.0]), qutrit.fock_basis(0))

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0], [np.inf, 0, 0], [1.0, 0, np.nan * 1j]])
    def test_nonfinite_rejected(self, bad):
        # a NaN norm compares False with any tolerance
        with pytest.raises(ValueError, match="not normalized"):
            qutrit.overlap(np.array(bad, dtype=complex), qutrit.fock_basis(0))
        with pytest.raises(ValueError, match="not normalized"):
            qutrit.overlap(qutrit.fock_basis(0), np.array(bad, dtype=complex))


class TestPhaseBlindEquality:
    def test_random_global_phases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            s = qutrit.make_state(*z)
            theta = rng.uniform(0, 2 * np.pi)
            assert qutrit.states_equal(s, np.exp(1j * theta) * s)

    def test_distinct_states_differ(self):
        assert not qutrit.states_equal(qutrit.trit_basis("plus"), qutrit.trit_basis("zero"))


def pair(u, v):
    """The pair state of photons u and v: the middle column of the lift of
    [u v], which is sqrt(2) times the symmetrized products
    (ux vx, (ux vy + uy vx)/sqrt(2), uy vy), normalized."""
    # make_state rejects an infinite or overflowing product; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        column = optics.lift(np.column_stack([u, v]))[:, 1]
    return qutrit.make_state(*column)


def linear(theta):
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


RIGHT_CIRCULAR = np.array([1.0, -1.0j]) / SQRT2
LEFT_CIRCULAR = np.array([1.0, 1.0j]) / SQRT2


class TestPairState:
    """The photon-pair descriptions of the trit basis in the `qutrit`
    docstring, through the one symmetric-product formula."""

    def test_circular_pair_is_psi_plus(self):
        s = pair(RIGHT_CIRCULAR, LEFT_CIRCULAR)
        assert qutrit.states_equal(s, qutrit.trit_basis("plus"), tol=1e-12)

    def test_diagonal_pair_is_psi_minus(self):
        s = pair(linear(np.pi / 4), linear(-np.pi / 4))
        assert qutrit.states_equal(s, qutrit.trit_basis("minus"), tol=1e-12)

    def test_xy_pair_is_psi_zero(self):
        s = pair(linear(0.0), linear(np.pi / 2))
        assert qutrit.states_equal(s, qutrit.trit_basis("zero"), tol=1e-12)

    def test_exact_symmetry(self):
        # sqrt(2)*a*b and sqrt(2)*b*a may round apart by one ulp
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.max(np.abs(pair(u, v) - pair(v, u))) < 1e-15

    def test_scale_invariant(self):
        u = np.array([1.0, 0.5j])
        v = np.array([0.3, -1.0])
        assert qutrit.states_equal(pair(u, v), pair(3.0 * u, -2j * v), tol=1e-12)

    def test_zero_photon_rejected(self):
        with pytest.raises(ZeroStateError):
            pair(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e200, np.inf])
    def test_huge_or_infinite_photon_rejected(self, scale):
        u = scale * np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="finite|overflows"):
            pair(u, u)
        with pytest.raises(ValueError, match="finite|overflows"):
            pair(u, np.array([1.0, 0.5]))

    def test_results_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            s = pair(u, v)
            assert abs(np.vdot(s, s).real - 1.0) < 1e-12
