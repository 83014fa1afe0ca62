"""Exact dense Hermitian operator algebra on small finite-dimensional spaces.

Thin validated containers around complex numpy matrices, plus the spectral
operations everything else is built on: eigenbasis matrix functions, the
Daleckii-Krein kernel of the logarithm, tensor products, and support
inclusion.

All containers are immutable after construction and all functions are pure,
so values can be shared freely across threads or worker processes.
"""

from __future__ import annotations

import numpy as np

from .config import (
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
