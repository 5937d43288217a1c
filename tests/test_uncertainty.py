import dataclasses

import numpy as np
import pytest

from qre.errors import DomainError
from qre.uncertainty import evaluate_deltas, squeezer_uncertainty


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


class TestExponents:
    """F1 and F2 are diagonals of delta**e, contractions over the window for
    every non-negative whole e; any other exponent is refused."""

    @pytest.mark.parametrize("f1, f2", [
        ((1, 1, 2, 2), (0, 3)), ((0, 0, 0, 0), ()), ((1.0, 2.0, 1, 2), (1, 1)),
    ])
    def test_whole_exponents_are_contractions(self, f1, f2):
        rng = np.random.default_rng(3)
        u = dataclasses.replace(squeezer_uncertainty(2.0, 0.1), f1_exponents=f1,
                                f2_exponents=f2, H2=rng.standard_normal((2, len(f2))),
                                G=rng.standard_normal((len(f2), 2)))
        for d in np.linspace(-1, 1, 41):
            f = [np.power(d, np.array(e, dtype=float)) for e in (f1, f2)]
            assert np.abs(np.concatenate(f)).max() <= 1
            F1, F2 = map(np.diag, f)
            t = evaluate_deltas(u, d)
            np.testing.assert_allclose(t.dA, u.H1 @ F1 @ u.E, atol=1e-14)
            np.testing.assert_allclose(t.dB, u.H2 @ F2 @ u.G, atol=1e-14)
            np.testing.assert_allclose(t.dC, u.H3 @ F1 @ u.E, atol=1e-14)

    @pytest.mark.parametrize("f1, f2, bad", [
        ((1, 1, -1, 2), (1, 1), "f1_exponents"),
        ((1, 1, 2, 2), (0.5, 1), "f2_exponents"),
        ((1, 1, 2, np.nan), (1, 1), "f1_exponents"),
        ((1, 1, 2, 2), (1, np.inf), "f2_exponents"),
    ])
    def test_other_exponents_raise(self, f1, f2, bad):
        with pytest.raises(DomainError, match=f"^{bad} must be non-negative whole"):
            dataclasses.replace(squeezer_uncertainty(2.0, 0.1), f1_exponents=f1,
                                f2_exponents=f2)
