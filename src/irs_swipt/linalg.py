"""Dense complex linear algebra used by every solver: Hermitian eigendecompositions
and PSD square roots, with input validation suited to interior-point output
(tiny negative eigenvalues are solver noise and get clipped)."""

import numpy as np

from .errors import InvalidInput, NotPSD

HERM_TOL = 1e-8  # relative asymmetry tolerated before declaring input non-Hermitian


def _as_square_complex(h):
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise InvalidInput("matrix contains non-finite entries")
    return h


def is_hermitian(h):
    """True if h equals its conjugate transpose within HERM_TOL (relative)."""
    h = np.asarray(h)
    scale = np.linalg.norm(h) + 1.0
    return np.linalg.norm(h - h.conj().T) <= HERM_TOL * scale


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with unit-norm columns).
    Input is symmetrized before factorization so roundoff-level asymmetry never
    leaks into the result; genuinely non-Hermitian input raises InvalidInput.
    """
    h = _as_square_complex(h)
    if not is_hermitian(h):
        raise InvalidInput("matrix is not Hermitian")
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def max_eigval(a):
    """Largest eigenvalue of a Hermitian matrix."""
    vals, _ = herm_eig(a)
    return float(vals[-1])


def psd_sqrt(x):
    """Hermitian square root S of a PSD matrix, S @ S.conj().T == x.

    Eigenvalues in [-1e-6*||x||, 0) are treated as numerical noise and clipped
    to zero; anything more negative raises NotPSD.
    """
    x = _as_square_complex(x)
    vals, vecs = herm_eig(x)
    scale = np.linalg.norm(x)
    if vals[0] < -1e-6 * max(scale, 1e-300):
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below -1e-6*||X|| ({scale:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T
