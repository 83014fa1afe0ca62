"""Exact dense Hermitian operator algebra on small finite-dimensional spaces.

Thin validated containers around complex numpy matrices, plus the spectral
operations everything else is built on: eigendecomposition with degenerate
grouping, eigenbasis matrix functions, tensor products, positive-part
projectors, and pinching.

All containers are immutable after construction and all functions are pure,
so values can be shared freely across threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    GROUP_TOL,
    PROJECTOR_TOL,
    PSD_TOL,
    SUPPORT_INCLUSION_TOL,
    SUPPORT_TOL,
    TRACE_TOL,
    dim_cap,
)
from .errors import DimensionCapError


class HermitianOperator:
    """A square complex matrix equal to its own conjugate transpose.

    The constructor symmetrizes, so the invariant holds exactly afterwards.
    Callers that must *reject* non-Hermitian input (rather than repair it)
    check the raw matrix first; see :func:`cqcovert.channel.validate`.
    """

    def __init__(self, mat):
        mat = np.array(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        mat = (mat + mat.conj().T) / 2.0
        mat.setflags(write=False)
        self.mat = mat

    @classmethod
    def _exact(cls, mat: np.ndarray):
        """Wrap ``mat`` without copying or symmetrizing it; only for matrices
        that are exactly Hermitian by construction (see :func:`tensor_product`)."""
        op = cls.__new__(cls)
        mat.setflags(write=False)
        op.mat = mat
        return op

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityOperator(HermitianOperator):
    """Positive semidefinite, unit-trace Hermitian matrix (a quantum state).

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero and the trace is
    renormalized to 1; a more negative eigenvalue, or a trace off by more
    than TRACE_TOL, is rejected.  ``validate=False`` skips the spectral
    checks for matrices that are PSD by construction (such as convex
    mixtures of validated states).
    """

    def __init__(self, mat, validate: bool = True):
        super().__init__(mat)
        if not validate:
            return
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL}")
        w = np.linalg.eigvalsh(self.mat)
        if w[0] < -PSD_TOL:
            raise ValueError(f"eigenvalue {w[0]:.3e} below the -{PSD_TOL} floor")
        if w[0] < 0.0 or tr != 1.0:
            w_full, v = np.linalg.eigh(self.mat)
            w_full = np.maximum(w_full, 0.0)
            mat = (v * w_full) @ v.conj().T
            mat = (mat + mat.conj().T) / 2.0
            mat = mat / np.trace(mat).real
            mat.setflags(write=False)
            self.mat = mat


class Projector(HermitianOperator):
    """Hermitian idempotent (all eigenvalues 0 or 1)."""

    def __init__(self, mat, validate: bool = True):
        super().__init__(mat)
        if validate:
            err = np.linalg.norm(self.mat @ self.mat - self.mat)
            if err > PROJECTOR_TOL:
                raise ValueError(f"not idempotent: ||P^2 - P|| = {err:.3e}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped eigendecomposition: one projector per near-degenerate group.

    ``eigenvalues`` holds one representative (group mean) per group, sorted
    descending; ``projectors`` are the matching orthogonal group projectors.
    """

    eigenvalues: np.ndarray
    projectors: tuple


def eig_hermitian(a: HermitianOperator, group_tol: float = GROUP_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues within ``group_tol`` merged.

    Merging a near-degenerate pair only coarsens downstream pinching; the
    reconstruction Sum_i lambda_i P_i still recovers ``a`` to within the
    grouping width.
    """
    w, v = np.linalg.eigh(a.mat)
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("eigensolver returned non-finite eigenvalues")
    w = w[::-1]
    v = v[:, ::-1]
    eigenvalues = []
    projectors = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i - 1] - w[i] > group_tol:
            block = v[:, start:i]
            eigenvalues.append(float(np.mean(w[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return SpectralDecomposition(np.array(eigenvalues), tuple(projectors))


def matrix_fn(a: HermitianOperator, f, on_support_only: bool = False) -> HermitianOperator:
    """Apply a scalar function to a Hermitian operator in its eigenbasis.

    With ``on_support_only`` set, eigenvalues at or below SUPPORT_TOL map to
    zero and ``f`` is applied only to the rest (the 0 log 0 = 0 convention
    for logs and negative powers on the support).  Without it, ``f`` must be
    finite on the whole spectrum.
    """
    w, v = np.linalg.eigh(a.mat)
    if on_support_only:
        fw = np.zeros_like(w)
        on = w > SUPPORT_TOL
        if np.any(on):
            fw[on] = f(w[on])
    else:
        with np.errstate(all="ignore"):
            fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError(
            "scalar function is not finite on the spectrum; "
            "pass on_support_only=True for logs and negative powers"
        )
    return HermitianOperator((v * fw) @ v.conj().T)


def dlog_kernel(w: np.ndarray) -> np.ndarray:
    """Daleckii-Krein kernel K with Dlog(a)[X] = V (K * V^H X V) V^H for a = V diag(w) V^H
    (Bhatia, Matrix Analysis, ch. V): K[i, j] = (log w_i - log w_j) / (w_i - w_j), or 1 / w_i
    where the two are equal, and 0 in the rows and columns of w <= SUPPORT_TOL, off supp(a)."""
    on = w > SUPPORT_TOL
    safe = np.where(on, w, 1.0)
    hi, lo = np.maximum.outer(safe, safe), np.minimum.outer(safe, safe)
    with np.errstate(invalid="ignore"):
        kernel = np.where(hi > lo, np.log1p((hi - lo) / lo) / (hi - lo), 1.0 / lo)
    return np.where(np.outer(on, on), kernel, 0.0)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product.  Trace-multiplicative; guarded by the dimension cap.

    Each entry is a product a_ik b_jl, and the conjugate of a product of
    floats is the product of the conjugates, so the Kronecker product of
    exactly Hermitian factors is exactly Hermitian and is not re-symmetrized.
    """
    cap = dim_cap()
    if a.dim * b.dim > cap:
        raise DimensionCapError(
            f"tensor product dimension {a.dim * b.dim} exceeds cap {cap}"
        )
    both = isinstance(a, DensityOperator) and isinstance(b, DensityOperator)
    return (DensityOperator if both else HermitianOperator)._exact(np.kron(a.mat, b.mat))


def tensor_power(a: HermitianOperator, n: int) -> HermitianOperator:
    """n-fold tensor product of ``a`` with itself."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = a
    for _ in range(n - 1):
        out = tensor_product(out, a)
    return out


def positive_part_projector(a: HermitianOperator) -> Projector:
    """Projector onto eigenvectors with strictly positive eigenvalue."""
    w, v = np.linalg.eigh(a.mat)
    cols = v[:, w > SUPPORT_TOL]
    return Projector(cols @ cols.conj().T, validate=False)


def pinch(a: HermitianOperator, b: HermitianOperator, group_tol: float = GROUP_TOL) -> HermitianOperator:
    """Dephase ``a`` in the eigenbasis of ``b``: Sum_i P_i a P_i.

    The result commutes with ``b`` and has the same trace as ``a``; on PSD
    input it stays PSD.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dec = eig_hermitian(b, group_tol)
    out = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for proj in dec.projectors:
        out += proj @ a.mat @ proj
    if isinstance(a, DensityOperator):
        return DensityOperator(out, validate=False)
    return HermitianOperator(out)


def support_is_contained(a: HermitianOperator, b: HermitianOperator,
                         tol: float = SUPPORT_INCLUSION_TOL) -> bool:
    """Whether supp(a) lies inside supp(b), up to eigenvector noise."""
    wa, va = np.linalg.eigh(a.mat)
    wb, vb = np.linalg.eigh(b.mat)
    return not _support_leaks(wa[None], va[None], wb, vb, tol)[0]


def _support_leaks(wa, va, wb, vb, tol: float = SUPPORT_INCLUSION_TOL) -> np.ndarray:
    """Per stacked eigendecomposition ``(wa[i], va[i])``, whether its support
    leaves the support of the one given by ``(wb, vb)``.

    Decided by ||(I - P_b) P_a||_2 > tol, which errs toward containment
    only when the violation is below numerical resolution.  A full-rank b
    has P_b = I, so nothing leaks and no norm is taken.
    """
    on_b = wb > SUPPORT_TOL
    if on_b.all():
        return np.zeros(len(wa), dtype=bool)
    pa = va * (wa > SUPPORT_TOL)[:, None, :]
    pb = vb[:, on_b]
    return np.linalg.norm(pa - pb @ (pb.conj().T @ pa), 2, axis=(1, 2)) > tol


def hermitian_to_realvec(mats: np.ndarray) -> np.ndarray:
    """Flatten Hermitian matrices into their d^2 independent real coordinates.

    Used to turn operator equalities into real linear systems: diagonal,
    then upper-triangle real parts, then upper-triangle imaginary parts.
    Maps a stack of shape (..., d, d) to (..., d^2).
    """
    rows, cols = np.triu_indices(mats.shape[-1], k=1)
    upper = mats[..., rows, cols]
    return np.concatenate([np.diagonal(mats, axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)
