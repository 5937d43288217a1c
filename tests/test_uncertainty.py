import dataclasses

import numpy as np
import pytest

from qre.errors import DomainError
from qre.uncertainty import (
    contraction_check,
    evaluate_deltas,
    squeezer_uncertainty,
)


def closed_form_deltas(alpha, mu, delta):
    """Independent closed forms for the squeezer coupling perturbation."""
    dA = (-(alpha**2) * mu * delta - alpha**2 * mu**2 * delta**2 / 2) * np.eye(2)
    dB = -mu * delta * alpha * np.eye(2)
    dC = mu * delta * alpha * np.eye(2)
    return dA, dB, dC


class TestSqueezerUncertainty:
    def test_factor_values(self):
        u = squeezer_uncertainty(2.0, 0.1)
        np.testing.assert_allclose(u.H2, -0.2 * np.eye(2))
        assert u.H3[0, 0] == pytest.approx(-0.4)
        assert u.H3[1, 1] == pytest.approx(-0.4)
        np.testing.assert_allclose(
            u.H1, [[0.8, 0, 0.04, 0], [0, 0.8, 0, 0.04]]
        )
        np.testing.assert_array_equal(u.G, np.eye(2))
        assert np.all(u.E[u.E != 0] == -0.5)

    def test_zero_mu_is_nominal(self):
        u = squeezer_uncertainty(2.0, 0.0)
        for d in np.linspace(-1, 1, 11):
            t = evaluate_deltas(u, d)
            assert np.all(t.dA == 0) and np.all(t.dB == 0) and np.all(t.dC == 0)

    def test_feedback_benchmark_alpha(self):
        u = squeezer_uncertainty(np.sqrt(2.0), 0.1)
        np.testing.assert_allclose(u.H2, -0.1 * np.sqrt(2) * np.eye(2))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            squeezer_uncertainty(2.0, 1.0)
        with pytest.raises(DomainError):
            squeezer_uncertainty(-1.0, 0.1)


class TestEvaluateDeltas:
    def test_zero_delta(self):
        u = squeezer_uncertainty(2.0, 0.1)
        t = evaluate_deltas(u, 0.0)
        assert np.all(t.dA == 0) and np.all(t.dB == 0) and np.all(t.dC == 0)

    def test_design_point_values(self):
        t = evaluate_deltas(squeezer_uncertainty(2.0, 0.1), -1.0)
        np.testing.assert_allclose(t.dA, 0.38 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(t.dB, 0.2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(t.dC, -0.2 * np.eye(2), atol=1e-14)

    def test_factorization_matches_closed_form(self):
        u = squeezer_uncertainty(2.0, 0.1)
        for d in np.linspace(-1, 1, 101):
            t = evaluate_deltas(u, d)
            dA, dB, dC = closed_form_deltas(2.0, 0.1, d)
            np.testing.assert_allclose(t.dA, dA, atol=1e-13)
            np.testing.assert_allclose(t.dB, dB, atol=1e-13)
            np.testing.assert_allclose(t.dC, dC, atol=1e-13)

    def test_deltas_are_real_multiples_of_identity(self):
        u = squeezer_uncertainty(2.0, 0.1)
        for d in np.linspace(-1, 1, 21):
            t = evaluate_deltas(u, d)
            for m in (t.dA, t.dB, t.dC):
                assert np.abs(m.imag).max() < 1e-15
                np.testing.assert_allclose(m, m[0, 0] * np.eye(2), atol=1e-14)

    def test_out_of_window(self):
        with pytest.raises(DomainError):
            evaluate_deltas(squeezer_uncertainty(2.0, 0.1), 1.5)
        with pytest.raises(DomainError, match="delta=nan outside"):
            evaluate_deltas(squeezer_uncertainty(2.0, 0.1), float("nan"))


class TestContractionCheck:
    def test_unit_window_passes(self):
        r = contraction_check(squeezer_uncertainty(2.0, 0.1), [-1.0, 0.0, 1.0])
        assert r.passed
        assert max(r.f1_norms) == pytest.approx(1.0)

    def test_scaled_contraction_fails(self):
        u = squeezer_uncertainty(2.0, 0.1)
        scaled = dataclasses.replace(u, f1_scale=1.5)
        r = contraction_check(scaled, [-1.0, 0.0, 1.0])
        assert not r.passed

    def test_half_delta_norm(self):
        r = contraction_check(squeezer_uncertainty(2.0, 0.1), [0.5])
        assert r.f1_norms[0] == pytest.approx(0.5)
        assert r.f2_norms[0] == pytest.approx(0.5)
