"""Polynomial coefficients of a matrix function of one complex variable.

:func:`poly_coefficients` recovers the entry polynomials exactly from one
call on the roots of unity.  ``symbols`` reads the coefficients of
``det L'(+-1, z)`` this way; the symbols themselves are built from their
coefficients and are never sampled.

Coefficients are stored in ascending order: ``coeffs[j]`` multiplies ``z**j``.
"""

from __future__ import annotations

import numpy as np


def poly_coefficients(evaluate, degree: int) -> np.ndarray:
    """Coefficients ``(degree + 1, n_rows, n_cols)`` of a polynomial matrix.

    Samples ``evaluate`` on the ``degree + 1`` roots of unity and inverts
    the discrete Fourier transform, which is exact for entries of degree
    at most ``degree``.  ``evaluate`` is called once, with the array of
    sample points, and must return the stacked matrices
    ``(degree + 1, n_rows, n_cols)``.
    """
    n_samp = degree + 1
    zs = np.exp(2j * np.pi * np.arange(n_samp) / n_samp)
    samples = np.asarray(evaluate(zs), dtype=complex)
    # c_j = (1 / n) sum_s f(z_s) w^{-js}
    js = np.arange(n_samp)
    phases = np.exp(-2j * np.pi * np.outer(js, js) / n_samp)
    return np.einsum("js,s...->j...", phases, samples) / n_samp
