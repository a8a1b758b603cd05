"""Dense complex linear algebra for small square matrices (dim <= 64).

The numerical substrate for the whole package: matrices are plain numpy
``complex128`` arrays validated at the function boundary, vectors are 1-d
arrays.  Every routine is a pure function of its inputs, deterministic for
a fixed platform and BLAS.

``hermitian_eig``, ``operator_norm`` and ``general_eig`` delegate to LAPACK
(via numpy); a LAPACK failure is raised as :class:`ConvergenceError`.
``expm`` stays hand-rolled for its stated squaring rule, and the LU family
for its relative pivot threshold, which defines :class:`SingularMatrixError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_DIM",
    "DEFAULT_TOL",
    "LinalgError",
    "ShapeError",
    "SingularMatrixError",
    "ConvergenceError",
    "NotHermitianError",
    "NotPositiveError",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "matmul",
    "adjoint",
    "commutator",
    "anticommutator",
    "effective_commutator",
    "expm",
    "operator_norm",
    "lu_factor",
    "lu_solve",
    "solve",
    "inverse",
    "hermitian_eig",
    "sqrtm_psd",
    "GeneralEig",
    "general_eig",
]

MAX_DIM = 64

#: default relative tolerance for residual checks throughout the package
DEFAULT_TOL = 1e-10

# fixed kernel parameters (deterministic, see module docstring)
_EXPM_TERM_TOL = 1e-17
_PIVOT_RTOL = 1e-13
_SQRT_CLAMP_RTOL = 1e-12
_HERM_RTOL = 1e-10


class LinalgError(Exception):
    """Base class for every numerical-kernel failure in this module."""


class ShapeError(LinalgError, ValueError):
    """Operands have incompatible or invalid shapes."""


class SingularMatrixError(LinalgError, ValueError):
    """Matrix is singular within the pivot threshold."""


class ConvergenceError(LinalgError, RuntimeError):
    """An iterative (LAPACK) kernel failed to converge."""


class NotHermitianError(LinalgError, ValueError):
    """Input required to be Hermitian is not."""


class NotPositiveError(LinalgError, ValueError):
    """Input required to be positive (semi)definite is not."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex128 matrix.

    Raises
    ------
    ShapeError
        If ``a`` is not square 2-d with 1 <= dim <= 64.
    ValueError
        If any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ShapeError(f"dimension {m.shape[0]} outside [1, {MAX_DIM}]")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a 1-d complex128 vector."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    if w.size == 0 or w.size > MAX_DIM:
        raise ShapeError(f"vector length {w.size} outside [1, {MAX_DIM}]")
    if dim is not None and w.size != dim:
        raise ShapeError(f"vector length {w.size} does not match dimension {dim}")
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    return w


def frobenius_norm(a) -> float:
    """Frobenius norm, the deterministic scale used for all thresholds."""
    return float(np.sqrt((np.abs(np.asarray(a, dtype=complex)) ** 2).sum()))


def matmul(a, b) -> np.ndarray:
    """Matrix product of two equally sized square matrices."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ShapeError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    return am @ bm


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    return matmul(a, b) - matmul(b, a)


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    return matmul(a, b) + matmul(b, a)


def effective_commutator(a, b) -> np.ndarray:
    """The bracket [A, B]_eff = AB - B^dag A.

    Governs Heisenberg dynamics under a non-self-adjoint generator; reduces
    to the ordinary commutator when B is Hermitian.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ShapeError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    return am @ bm - bm.conj().T @ am


def _one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor kernel.

    The squaring count is ``s = max(0, ceil(log2(norm1(A))) + 1)`` so the
    scaled matrix has 1-norm <= 1/2; the Taylor series of the scaled matrix
    is summed until the bound on the next term drops below 1e-17.

    Raises
    ------
    OverflowError
        If the result (or an intermediate square) leaves the representable
        range; the overflow is reported, never saturated silently.
    """
    am = as_matrix(a)
    d = am.shape[0]
    norm1 = _one_norm(am)
    if norm1 == 0.0:
        return np.eye(d, dtype=complex)
    s = max(0, int(np.ceil(np.log2(norm1))) + 1)
    b = am / (2.0 ** s)
    bnorm = _one_norm(b)

    total = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    term_bound = 1.0
    k = 1
    while True:
        term = term @ b / k
        total += term
        term_bound *= bnorm / k
        if term_bound * bnorm / (k + 1) < _EXPM_TERM_TOL:
            break
        k += 1

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            total = total @ total
            if not np.isfinite(total).all():
                raise OverflowError(
                    "matrix exponential overflowed float range during squaring"
                )
    return total


def operator_norm(a) -> float:
    """Largest singular value (LAPACK SVD); ConvergenceError if it fails."""
    am = as_matrix(a)
    if np.abs(am).max() == 0.0:
        return 0.0
    try:
        return float(np.linalg.norm(am, 2))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value decomposition failed: {exc}") from exc


def lu_factor(a) -> tuple[np.ndarray, list[int]]:
    """LU decomposition with partial pivoting.

    Returns the packed LU matrix and the pivot row chosen at each step.

    Raises
    ------
    SingularMatrixError
        If a pivot falls below 1e-13 times the Frobenius norm of ``a``.
    """
    am = as_matrix(a).copy()
    d = am.shape[0]
    scale = frobenius_norm(am)
    threshold = _PIVOT_RTOL * scale
    pivots: list[int] = []
    for col in range(d):
        p = col + int(np.argmax(np.abs(am[col:, col])))
        if np.abs(am[p, col]) <= threshold:
            raise SingularMatrixError(
                f"pivot {np.abs(am[p, col]):.3e} below threshold {threshold:.3e} "
                f"at column {col}"
            )
        if p != col:
            am[[col, p], :] = am[[p, col], :]
        pivots.append(p)
        am[col + 1 :, col] /= am[col, col]
        am[col + 1 :, col + 1 :] -= np.outer(am[col + 1 :, col], am[col, col + 1 :])
    return am, pivots


def lu_solve(lu: np.ndarray, pivots: list[int], y) -> np.ndarray:
    """Back-substitute a factorization from :func:`lu_factor`."""
    d = lu.shape[0]
    x = np.asarray(y, dtype=complex).copy()
    vector = x.ndim == 1
    if vector:
        x = x.reshape(-1, 1)
    if x.shape[0] != d:
        raise ShapeError(f"right-hand side length {x.shape[0]} != dimension {d}")
    for col, p in enumerate(pivots):
        if p != col:
            x[[col, p], :] = x[[p, col], :]
    for col in range(d):  # forward: L has unit diagonal
        x[col + 1 :, :] -= np.outer(lu[col + 1 :, col], x[col, :])
    for col in range(d - 1, -1, -1):  # backward
        x[col, :] /= lu[col, col]
        x[:col, :] -= np.outer(lu[:col, col], x[col, :])
    return x[:, 0] if vector else x


def solve(a, y) -> np.ndarray:
    """Solve A x = y for a square A (LU with partial pivoting)."""
    lu, pivots = lu_factor(a)
    return lu_solve(lu, pivots, y)


def inverse(a) -> np.ndarray:
    """Matrix inverse via LU with partial pivoting."""
    am = as_matrix(a)
    lu, pivots = lu_factor(am)
    return lu_solve(lu, pivots, np.eye(am.shape[0], dtype=complex))


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a
    Hermitian matrix, by LAPACK via ``np.linalg.eigh``.

    Raises
    ------
    NotHermitianError
        If ``||A - A^dag|| > 1e-10 * ||A||``.
    ConvergenceError
        If the LAPACK eigensolver fails to converge.
    """
    am = as_matrix(a)
    d = am.shape[0]
    scale = frobenius_norm(am)
    if scale == 0.0:
        return np.zeros(d), np.eye(d, dtype=complex)
    if frobenius_norm(am - am.conj().T) > _HERM_RTOL * scale:
        raise NotHermitianError("input is not Hermitian within 1e-10 relative")
    try:
        return np.linalg.eigh((am + am.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc


def sqrtm_psd(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-12 * ||A||, 0) are clamped to zero; anything more
    negative raises :class:`NotPositiveError`.
    """
    am = as_matrix(a)
    w, v = hermitian_eig(am)
    clamp = _SQRT_CLAMP_RTOL * max(frobenius_norm(am), np.finfo(float).tiny)
    if w.size and w[0] < -clamp:
        raise NotPositiveError(f"eigenvalue {w[0]:.3e} below the PSD clamp {-clamp:.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root) @ v.conj().T


@dataclass
class GeneralEig:
    """Eigendecomposition of a general complex matrix.

    ``vectors[i]`` is None when eigenpair ``i`` belongs to a defective
    (non-diagonalizable) cluster; ``defects`` then carries a human-readable
    diagnostic per affected pair instead of a fabricated basis vector.
    """

    values: np.ndarray
    vectors: list[np.ndarray | None]
    defects: list[str] = field(default_factory=list)

    @property
    def is_diagonalizable(self) -> bool:
        return not self.defects


def general_eig(a) -> GeneralEig:
    """Complex spectrum and right eigenvectors of a general square matrix.

    Pairs are sorted by (real, imaginary) part.  Each returned eigenvector
    satisfies ``||A v - lambda v|| <= 1e-9 * ||A||``; pairs failing that, or
    belonging to a near-parallel eigenvector cluster, are reported in
    ``defects`` with their vector suppressed.

    Raises
    ------
    ConvergenceError
        If the underlying QR iteration fails to converge.
    """
    am = as_matrix(a)
    if am.shape[0] > MAX_DIM:
        raise ShapeError(f"dimension {am.shape[0]} exceeds {MAX_DIM}")
    try:
        values, vectors = np.linalg.eig(am)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]

    scale = frobenius_norm(am)
    residual_tol = 1e-9 * max(scale, np.finfo(float).tiny)
    out_vectors: list[np.ndarray | None] = []
    defects: list[str] = []
    flagged = set()
    d = am.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            overlap = abs(np.vdot(vectors[:, i], vectors[:, j]))
            if overlap > 1.0 - 1e-8:
                flagged.update((i, j))
                defects.append(
                    f"eigenpairs {i} and {j} (lambda={values[i]:.6g}, "
                    f"{values[j]:.6g}) share their eigendirection "
                    f"(overlap {overlap:.12f}): defective cluster"
                )
    for i in range(d):
        vec = vectors[:, i]
        residual = np.linalg.norm(am @ vec - values[i] * vec)
        if residual > residual_tol:
            flagged.add(i)
            defects.append(
                f"eigenpair {i} (lambda={values[i]:.6g}) residual {residual:.3e} "
                f"exceeds {residual_tol:.3e}"
            )
        out_vectors.append(None if i in flagged else vec)
    return GeneralEig(values=values, vectors=out_vectors, defects=defects)
