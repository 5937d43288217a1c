"""Structured norm-bounded uncertainty.

The uncertain blocks are factored as dA = H1 F1(delta) E, dB = H2 F2(delta) G,
dC = H3 F1(delta) E.  F1 and F2 are diagonals of non-negative whole powers
of delta, so over the uncertainty window delta in [-1, 1] each is a
contraction (largest singular value at most one) by construction; a scale
belongs in H1, H3 or H2.  Each block is a polynomial in delta with
coefficient stacks ``UncertaintyModel.coefficients()``, evaluated by
``delta_powers``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeMismatch
from .linalg import as_cmatrix

__all__ = [
    "UncertaintyModel",
    "DeltaTriple",
    "squeezer_uncertainty",
    "delta_powers",
    "evaluate_deltas",
]


class DeltaTriple(NamedTuple):
    """Perturbations of the state, input and output maps at one delta."""

    dA: np.ndarray
    dB: np.ndarray
    dC: np.ndarray


@dataclass(frozen=True)
class UncertaintyModel:
    """Factor matrices plus the delta-parameterized contraction maps.

    F1(delta) and F2(delta) are stored as diagonal exponent patterns (entry
    k of F1 is delta**f1_exponents[k]); an exponent that is not a
    non-negative whole number raises DomainError.
    """

    H1: np.ndarray
    H2: np.ndarray
    H3: np.ndarray
    E: np.ndarray
    G: np.ndarray
    f1_exponents: tuple
    f2_exponents: tuple

    def __post_init__(self):
        for name in ("H1", "H2", "H3", "E", "G"):
            object.__setattr__(self, name, as_cmatrix(getattr(self, name)))
        for name in ("f1_exponents", "f2_exponents"):
            e = tuple(getattr(self, name))
            if not all(k >= 0 and k % 1 == 0 for k in e):
                raise DomainError(f"{name} must be non-negative whole numbers, got {e}")
            object.__setattr__(self, name, e)
        k1, k2 = len(self.f1_exponents), len(self.f2_exponents)
        if not self.H1.shape[1] == self.H3.shape[1] == self.E.shape[0] == k1:
            raise ShapeMismatch("H1, H3 and E must conform with the F1 block")
        if not self.H2.shape[1] == self.G.shape[0] == k2:
            raise ShapeMismatch("H2, G must conform with the F2 block")

    def coefficients(self):
        """``(powers, dA, dB, dC)``: the powers of delta, ascending from 0,
        and dA, dB, dC as (P, ., .) stacks whose entry p multiplies
        delta**powers[p]."""
        powers = tuple(sorted({0, *self.f1_exponents, *self.f2_exponents}))

        def terms(H, exponents, M):
            e = np.array(exponents)
            return np.stack([H[:, e == p] @ M[e == p] for p in powers])

        dA, dC = (terms(H, self.f1_exponents, self.E) for H in (self.H1, self.H3))
        return powers, dA, terms(self.H2, self.f2_exponents, self.G), dC


def squeezer_uncertainty(alpha, mu):
    """Uncertainty in the squeezer coupling amplitude alpha = sqrt(kappa).

    A relative perturbation mu*delta of alpha yields perturbations that
    factor with H1 = [[2 mu a^2, 0, mu^2 a^2, 0], [0, 2 mu a^2, 0, mu^2 a^2]],
    H2 = -mu a I, H3 = [[-2 mu a, 0, 0, 0], [0, -2 mu a, 0, 0]], E a 4x2
    matrix of -1/2 entries, G = I, F1(delta) = diag(delta, delta, delta^2,
    delta^2), F2(delta) = delta I.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if not 0 <= mu < 1:
        raise DomainError("mu must lie in [0, 1)")
    a2 = alpha * alpha
    H1 = np.array(
        [
            [2 * mu * a2, 0, mu**2 * a2, 0],
            [0, 2 * mu * a2, 0, mu**2 * a2],
        ],
        dtype=complex,
    )
    H2 = -mu * alpha * np.eye(2)
    H3 = np.array(
        [
            [-2 * mu * alpha, 0, 0, 0],
            [0, -2 * mu * alpha, 0, 0],
        ],
        dtype=complex,
    )
    E = np.array(
        [[-0.5, 0], [0, -0.5], [-0.5, 0], [0, -0.5]], dtype=complex
    )
    return UncertaintyModel(
        H1=H1,
        H2=H2,
        H3=H3,
        E=E,
        G=np.eye(2),
        f1_exponents=(1, 1, 2, 2),
        f2_exponents=(1, 1),
    )


def delta_powers(powers, deltas):
    """delta**p for each delta of a grid and each listed power p, as a
    (K, P) array.  A delta outside the window [-1, 1] raises DomainError
    naming the first one."""
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    outside = deltas[~(np.abs(deltas) <= 1)]
    if outside.size:
        raise DomainError(f"delta={outside[0]} outside [-1, 1]")
    return deltas[:, None] ** np.array(powers)


def evaluate_deltas(u, delta):
    """Perturbation triple dA = H1 F1 E, dB = H2 F2 G, dC = H3 F1 E at one
    delta: the one-delta case of ``u.coefficients()``."""
    powers, *stacks = u.coefficients()
    x = delta_powers(powers, [delta])[0]
    return DeltaTriple(*(np.einsum("p,pij->ij", x, c) for c in stacks))
