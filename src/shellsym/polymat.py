"""Matrices with polynomial entries in one complex variable.

Frozen-coefficient principal symbols restricted to a boundary point are
matrices whose entries are polynomials in the normal frequency.  This module
provides the small amount of machinery needed to manipulate them numerically:
exact recovery of the entry polynomials from point samples, differentiation,
and the action of the corresponding constant-coefficient ODE system on
exponential-polynomial profiles ``(c0 + c1*y + ...) * exp(mu*y)``.

Polynomial coefficients are stored in ascending order: ``coeffs[j]`` multiplies
``z**j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np


class PolyMatrix:
    """Matrix of univariate polynomials.

    Parameters
    ----------
    coeffs : np.ndarray
        Complex array of shape ``(degree + 1, n_rows, n_cols)``;
        ``coeffs[j]`` is the matrix multiplying ``z**j``.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3:
            raise ValueError("coeffs must have shape (degree + 1, n_rows, n_cols)")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def size(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def from_samples(cls, evaluate, degree: int, radius: float = 1.0) -> "PolyMatrix":
        """Recover a polynomial matrix of known degree bound from samples.

        Samples ``evaluate`` on ``degree + 1`` scaled roots of unity and
        inverts the discrete Fourier transform, which is exact for entries of
        degree at most ``degree``.
        """
        n_samp = degree + 1
        zs = radius * np.exp(2j * np.pi * np.arange(n_samp) / n_samp)
        samples = np.stack([np.asarray(evaluate(z), dtype=complex) for z in zs])
        # c_j = (1 / (n R^j)) sum_s f(z_s) w^{-js}
        js = np.arange(n_samp)
        phases = np.exp(-2j * np.pi * np.outer(js, js) / n_samp)
        coeffs = np.einsum("js,s...->j...", phases, samples) / n_samp
        coeffs /= radius ** js[:, None, None]
        return cls(coeffs)

    def eval(self, z: complex) -> np.ndarray:
        """Evaluate the matrix at a point (Horner)."""
        out = np.zeros_like(self.coeffs[0])
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out

    def derivative(self) -> "PolyMatrix":
        if self.degree == 0:
            return PolyMatrix(np.zeros_like(self.coeffs[:1]))
        js = np.arange(1, self.degree + 1)
        return PolyMatrix(self.coeffs[1:] * js[:, None, None])


@dataclass
class ExpPolyMode:
    """Vector-valued exponential polynomial ``sum_j y^j c_j  * exp(growth*y)``.

    ``growth`` is the raw exponent multiplying the coordinate, so a mode that
    decays into the domain has ``Re(growth) < 0``.  For half-space problems
    written in the normal frequency ``xi2`` (solutions ``exp(i*xi2*x2)``) the
    frequency is kept in ``frequency`` and ``growth = i*xi2``.
    """

    growth: complex
    coeffs: list = field(default_factory=list)
    frequency: complex | None = None

    def eval(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = sum(np.multiply.outer(y ** j, c) for j, c in enumerate(self.coeffs))
        return out * np.exp(self.growth * y)[..., None]

    def value_at_zero(self) -> np.ndarray:
        return np.asarray(self.coeffs[0], dtype=complex)

    def scaled(self, factor: complex) -> "ExpPolyMode":
        return ExpPolyMode(self.growth, [factor * c for c in self.coeffs],
                           self.frequency)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(c, c).real for c in self.coeffs)))


def apply_shifted(pm: PolyMatrix, z0: complex, coeffs: list, step: complex) -> list:
    """Apply the ODE operator ``pm(op)`` to a polynomial profile.

    ``pm`` is a polynomial matrix in a scalar symbol variable; the operator is
    obtained by substituting ``z0 + step * d/dy`` for that variable, which is
    the exponential shift identity for profiles ``p(y) * e``:

    * ``step = 1``   for operators polynomial in ``d/dy`` acting on
      ``p(y) exp(z0 y)``;
    * ``step = -1j`` for operators polynomial in ``D = -i d/dx`` acting on
      ``p(x) exp(i z0 x)``.

    Returns the coefficient vectors of the resulting polynomial profile.
    """
    degree_p = len(coeffs) - 1
    derivs = [pm]
    for _ in range(degree_p):
        derivs.append(derivs[-1].derivative())
    evals = [d.eval(z0) for d in derivs]
    out = []
    for n in range(degree_p + 1):
        acc = np.zeros(pm.size, dtype=complex)
        for m in range(degree_p - n + 1):
            acc = acc + comb(n + m, m) * (step ** m) * (evals[m] @ coeffs[n + m])
        out.append(acc)
    return out


def apply_normal_ode(pm: PolyMatrix, mode: ExpPolyMode) -> ExpPolyMode:
    """Apply ``pm(D2)`` (``D2 = -i d/dx2``) to a mode ``exp(i*xi2*x2) p(x2)``."""
    if mode.frequency is None:
        raise ValueError("mode must carry its normal frequency")
    out = apply_shifted(pm, mode.frequency, mode.coeffs, -1j)
    return ExpPolyMode(mode.growth, out, mode.frequency)


def apply_layer_ode(pm: PolyMatrix, mode: ExpPolyMode) -> ExpPolyMode:
    """Apply ``pm(d/dy)`` to a mode ``exp(growth*y) p(y)``."""
    out = apply_shifted(pm, mode.growth, mode.coeffs, 1.0)
    return ExpPolyMode(mode.growth, out, mode.frequency)
