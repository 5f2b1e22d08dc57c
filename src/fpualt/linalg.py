"""Dense symmetric eigensolver (cyclic Jacobi).

Used for the linear spectrum of the full chain
(:func:`fpualt.chain.linear_spectrum_full`); the reduced system's modal
basis is closed form (:mod:`fpualt.spectral`).  The eigenproblem is small
and symmetric after mass-weighting, so a classical Jacobi iteration is
both simple and fully deterministic across platforms.  Accuracy is at
the level of machine epsilon times the matrix norm.
"""

import numpy as np


def jacobi_eigh(a, rel_threshold=1e-13, max_sweeps=60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    a : (n, n) array_like, symmetric
    rel_threshold : float
        Convergence threshold for off-diagonal entries, relative to the
        largest absolute entry of the input matrix.
    max_sweeps : int
        Safety cap on the number of full sweeps.

    Returns
    -------
    w : (n,) ndarray
        Eigenvalues, unsorted (in the order they appear on the diagonal).
    v : (n, n) ndarray
        Orthogonal matrix, column ``v[:, i]`` is the eigenvector of ``w[i]``.
    """
    A = np.array(a, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if n and not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    V = np.eye(n)
    if n < 2:
        return np.diag(A).copy(), V

    scale = np.abs(A).max()
    if scale == 0.0:
        return np.zeros(n), V
    thresh = rel_threshold * scale
    skip = 0.01 * thresh  # rotations on entries this small are pure noise

    iu = np.triu_indices(n, 1)
    for _ in range(max_sweeps):
        if np.abs(A[iu]).max() <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- J^T A J with the Givens rotation J in the (p, q) plane
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                col_p = V[:, p].copy()
                col_q = V[:, q].copy()
                V[:, p] = c * col_p - s * col_q
                V[:, q] = s * col_p + c * col_q
    else:
        raise RuntimeError(
            f"Jacobi iteration did not converge in {max_sweeps} sweeps "
            f"(residual {np.abs(A[iu]).max():.3e})"
        )
    return np.diag(A).copy(), V
