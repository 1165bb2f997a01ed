"""Primitives on the cone of symmetric positive (semi)definite matrices.

Everything downstream of the message-passing engine reasons about
information matrices as points in the positive definite cone: the Loewner
partial order gives set bounds, and the part (Thompson) metric gives the
contraction geometry.  This module keeps those primitives in one place so
the engine and the diagnostics agree on tolerances and on what "comparable"
means.

Notation used in docstrings: ``X >= Y`` is the Loewner order (``X - Y``
positive semidefinite), ``X > 0`` means positive definite.
"""

import numpy as np
import scipy.linalg

__all__ = [
    "NotComparableError",
    "NumericalError",
    "symmetrize",
    "default_tolerance",
    "min_eigenvalue",
    "is_psd",
    "is_pd",
    "loewner_geq",
    "part_metric",
    "part_metric_blocks",
    "eigvalsh_blocks",
    "min_eigenvalue_blocks",
    "block_diag",
    "split_blocks",
    "cho_factor_pd",
    "solve_pd",
    "inv_pd",
]

# Relative floor used when the caller does not pin an explicit tolerance.
REL_TOL = 1e-10


class NotComparableError(ValueError):
    """Raised when a part-metric argument is not positive definite.

    The part metric is only defined between points of the open cone that
    lie in a common part; for our purposes that is the set of symmetric
    positive definite matrices of equal size.
    """


class NumericalError(RuntimeError):
    """A matrix that must be positive definite failed to factorize.

    Carries a crude conditioning estimate so the caller can tell apart
    "mildly indefinite from roundoff" and "structurally singular".
    """

    def __init__(self, message, condition=None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


def symmetrize(a):
    """Return the symmetric part ``(a + a.T) / 2`` of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return (a + a.T) / 2.0


def default_tolerance(*mats):
    """Eigenvalue tolerance scaled to the magnitude of the arguments."""
    largest = 0.0
    for m in mats:
        m = np.asarray(m, dtype=float)
        if m.size:
            largest = max(largest, float(np.max(np.abs(m))))
    return REL_TOL * (1.0 + largest)


def min_eigenvalue(x):
    """Smallest eigenvalue of a symmetric matrix."""
    x = symmetrize(x)
    if x.shape[0] == 0:
        return np.inf
    return float(scipy.linalg.eigvalsh(x)[0])


def is_psd(x, tol=None):
    """True if ``x`` is symmetric positive semidefinite up to ``tol``."""
    if tol is None:
        tol = default_tolerance(x)
    return min_eigenvalue(x) >= -tol


def is_pd(x, tol=None):
    """True if ``x`` is symmetric positive definite (min eigenvalue > tol)."""
    if tol is None:
        tol = default_tolerance(x)
    return min_eigenvalue(x) > tol


def loewner_geq(x, y, tol=None):
    """True if ``x >= y`` in the Loewner order, up to ``tol``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if tol is None:
        tol = default_tolerance(x, y)
    return is_psd(x - y, tol=tol)


def part_metric(x, y, tol=None):
    """Part (Thompson) metric between positive definite matrices.

    d(X, Y) = log inf{a >= 1 : a*X >= Y and a*Y >= X}.  For X, Y > 0 the
    infimum is max(lmax, 1/lmin) where lmin, lmax are the extreme
    generalized eigenvalues of the pencil (Y, X); a single symmetric
    definite eigensolve gives the exact value, no search needed.

    Raises NotComparableError when either argument is not positive
    definite (smallest eigenvalue at most ``tol``, by default
    ``default_tolerance(x, y)``), since such points do not share a part of
    the cone.
    """
    return part_metric_blocks([x], [y], tol=tol)


def part_metric_blocks(xs, ys, tol=None):
    """Part metric between two block diagonal matrices given as block lists.

    The metric decomposes over a direct sum: the scaling factor must work
    for every block at once, so the distance is the max over blocks.  The
    default tolerance is per block pair, and each block size takes one
    batched eigensolve.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"block count mismatch {len(xs)} vs {len(ys)}")
    # Starting at 0 also guards against roundoff putting alpha just below 1.
    dist = 0.0
    for pos, (x, y) in _batches(xs, ys):
        if x.shape[1] == 0:
            continue
        largest = np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(y).max(axis=(1, 2)))
        t = REL_TOL * (1.0 + largest) if tol is None else tol
        for z, which in ((x, "first"), (y, "second")):
            low = np.linalg.eigvalsh(z)[:, 0]
            bad = np.flatnonzero(~(low > t))
            if bad.size:
                raise NotComparableError(
                    f"{which} argument of block {pos[bad[0]]} is not positive "
                    f"definite (min eig {low[bad[0]]:.3e})"
                )
        # The pencil (Y, X) has the eigenvalues of L^{-1} Y L^{-T}, X = L L^T.
        chol = np.linalg.cholesky(x)
        w = np.linalg.eigvalsh(
            np.linalg.solve(chol, np.linalg.solve(chol, y).swapaxes(1, 2))
        )
        alpha = max(float(w[:, -1].max()), float((1.0 / w[:, 0]).max()))
        dist = max(dist, float(np.log(alpha)))
    return dist


def eigvalsh_blocks(blocks):
    """Eigenvalues of all symmetric blocks of a list, concatenated in no
    particular order: one batched eigensolve per block size."""
    out = [np.linalg.eigvalsh(x).ravel() for _, (x,) in _batches(blocks)]
    return np.concatenate(out) if out else np.zeros(0)


def min_eigenvalue_blocks(blocks):
    """Smallest eigenvalue over a list of symmetric blocks (inf if none):
    the smallest eigenvalue of their direct sum."""
    w = eigvalsh_blocks(blocks)
    return float(w.min()) if w.size else np.inf


def _batches(*block_lists):
    """Group parallel block lists by block size: yields the positions of
    each size's blocks and, per list, those blocks symmetrized and stacked
    into a (count, d, d) array."""
    groups = {}
    for k, b in enumerate(block_lists[0]):
        groups.setdefault(np.shape(b), []).append(k)
    for shape, pos in groups.items():
        stacks = []
        for blocks in block_lists:
            s = np.stack([np.asarray(blocks[k], dtype=float) for k in pos])
            if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1:] != shape:
                raise ValueError(f"expected square blocks of shape {shape}, got {s.shape[1:]}")
            if not np.all(np.isfinite(s)):
                raise ValueError("matrix has non-finite entries")
            stacks.append((s + s.swapaxes(1, 2)) / 2.0)
        yield pos, stacks


def block_diag(blocks):
    """Assemble square blocks into one dense block diagonal matrix."""
    blocks = [symmetrize(b) if b.ndim == 2 else np.asarray(b, float) for b in blocks]
    if not blocks:
        return np.zeros((0, 0))
    return scipy.linalg.block_diag(*blocks)


def split_blocks(x, dims):
    """Cut a block diagonal matrix back into its diagonal blocks.

    ``dims`` lists the block sizes in order.  The off diagonal entries are
    not checked; callers that care about exact block structure should test
    that separately.
    """
    x = np.asarray(x, dtype=float)
    total = int(sum(dims))
    if x.shape != (total, total):
        raise ValueError(f"matrix shape {x.shape} does not match dims sum {total}")
    out = []
    off = 0
    for d in dims:
        out.append(x[off : off + d, off : off + d].copy())
        off += d
    return out


def cho_factor_pd(x, context="matrix"):
    """Cholesky factorization that raises NumericalError with context.

    ``x`` must be symmetric: only its lower triangle is read.
    ``context`` should say what the matrix is ("factor 3 innovation
    covariance", ...) so failures deep inside an iteration are
    attributable.
    """
    try:
        return scipy.linalg.cho_factor(x, lower=True)
    except scipy.linalg.LinAlgError as exc:
        cond = _condition_estimate(x)
        raise NumericalError(
            f"{context} is not positive definite: {exc}", condition=cond
        ) from exc


def solve_pd(x, b, context="matrix"):
    """Solve ``x @ z = b`` for positive definite ``x`` via Cholesky.

    ``x`` must be symmetric: only its lower triangle is read.
    """
    factor = cho_factor_pd(x, context=context)
    return scipy.linalg.cho_solve(factor, np.asarray(b, dtype=float))


def inv_pd(x, context="matrix"):
    """Inverse of a positive definite matrix, symmetrized on the way out.

    ``x`` must be symmetric: only its lower triangle is read.
    """
    x = np.asarray(x, dtype=float)
    out = solve_pd(x, np.eye(x.shape[0]), context=context)
    return symmetrize(out)


def _condition_estimate(x):
    try:
        w = np.abs(scipy.linalg.eigvalsh(x))
        small = float(np.min(w))
        if small == 0.0:
            return np.inf
        return float(np.max(w)) / small
    except Exception:
        return None
