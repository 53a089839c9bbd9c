"""Polynomial coefficients of a matrix function of one complex variable.

:func:`poly_coefficients` recovers the entry polynomials exactly from one
call on the roots of unity, through the inverse DFT :func:`_inverse_dft`.
``symbols`` reads the coefficients of ``det L'(+-1, z)`` from the
determinants at the roots of unity with that inverse DFT; the symbols
themselves are built from their coefficients and are never sampled.  The roots of unity and the inverse-DFT
matrix of each sample count are built once, on first use, and kept as
read-only constants.

Coefficients are stored in ascending order: ``coeffs[j]`` multiplies ``z**j``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _read_only


@functools.cache
def _dft(n_samp: int) -> tuple:
    """The ``n_samp`` roots of unity ``z_s`` and the phases ``w^(-js)`` of the inverse DFT."""
    js = np.arange(n_samp)
    return _read_only(np.exp(2j * np.pi * js / n_samp),
                      np.exp(-2j * np.pi * np.outer(js, js) / n_samp))


def poly_coefficients(evaluate, degree: int) -> np.ndarray:
    """Coefficients ``(degree + 1, n_rows, n_cols)`` of a polynomial matrix.

    Samples ``evaluate`` on the ``degree + 1`` roots of unity and inverts
    the discrete Fourier transform, which is exact for entries of degree
    at most ``degree``.  ``evaluate`` is called once, with the array of
    sample points, and must return the stacked matrices
    ``(degree + 1, n_rows, n_cols)``.
    """
    return _inverse_dft(np.asarray(evaluate(_dft(degree + 1)[0]), dtype=complex))


def _inverse_dft(samples: np.ndarray) -> np.ndarray:
    """The coefficients of a polynomial (matrix) from its ``samples`` at the
    ``len(samples)`` roots of unity."""
    n_samp = len(samples)
    # c_j = (1 / n) sum_s f(z_s) w^{-js}
    return np.einsum("js,s...->j...", _dft(n_samp)[1], samples) / n_samp
