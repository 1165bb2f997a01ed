"""Primitives on the cone of symmetric positive (semi)definite matrices.

Everything downstream of the message-passing engine reasons about
information matrices as points in the positive definite cone: the Loewner
partial order gives set bounds, and the part (Thompson) metric gives the
contraction geometry.  This module keeps those primitives in one place so
the engine and the diagnostics agree on tolerances, on what "comparable"
means, and on how a PD block is factorized and its failure named: every
factorization is numpy's Cholesky, and every solve with its factor a
forward substitution (``_substitute``).

Notation used in docstrings: ``X >= Y`` is the Loewner order (``X - Y``
positive semidefinite), ``X > 0`` means positive definite.
"""

import functools

import numpy as np

__all__ = [
    "NotComparableError",
    "NumericalError",
    "symmetrize",
    "part_metric_blocks",
    "eigvalsh_blocks",
    "min_eigenvalue_blocks",
    "cho_factor_pd",
    "solve_pd",
    "inv_pd",
]

# Every cone test's tolerance is REL_TOL times the largest entry (``_tolerance``).
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
    return _sym(_checked_square(a))


def part_metric_blocks(xs, ys):
    """Part (Thompson) metric between two block diagonal matrices given as
    block lists, or both grouped by block size as ``{d: (count, d, d)}``.

    d(X, Y) = log inf{a >= 1 : a*X >= Y and a*Y >= X}.  Per block pair the
    infimum is max(lmax, 1/lmin) over the generalized eigenvalues of the
    pencil (Y, X); over a direct sum it is the max over blocks.  Each block
    size takes one batched eigensolve per step (``_part_alpha``).  Raises
    NotComparableError when a block is not positive definite beyond its
    pair's tolerance (``_tolerance``): such points share no part.
    """
    if len(xs) != len(ys):
        raise ValueError(f"block count mismatch {len(xs)} vs {len(ys)}")
    # Starting at 0 also guards against roundoff putting alpha just below 1.
    dist = 0.0
    for pos, (x, y) in _batches(xs, ys):
        if x.shape[1] == 0:
            continue
        alpha, eigs, t = _part_alpha(x, y)
        for w, which in zip(eigs, ("first", "second")):
            bad = np.flatnonzero(~(w[:, 0] > t))
            if bad.size:
                raise NotComparableError(
                    f"{which} argument of block {pos[bad[0]]} (size {x.shape[1]}) is not "
                    f"positive definite (min eig {w[bad[0], 0]:.3e})"
                )
        dist = max(dist, float(np.log(alpha.max())))
    return dist


def _part_alpha(x, y):
    """exp of the part metric per block pair of symmetric stacks x (..., n,
    d, d) and y (n, d, d), nan unless both are PD beyond the pair's
    tolerance; also the eigenvalues of x and y and the tolerances.  The
    pencil's eigenvalues are those of L^{-1} X L^{-T}, Y = L L^T, with L
    inverted once for all of x."""
    eigs = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
    t = _tolerance(x, y)
    ok = (eigs[0][..., 0] > t) & (eigs[1][..., 0] > t)
    y = np.where(ok.reshape(-1, len(y)).any(axis=0)[:, None, None], y, np.eye(y.shape[-1]))
    inv = np.linalg.inv(np.linalg.cholesky(y))
    w = np.where(ok[..., None], np.linalg.eigvalsh(inv @ x @ inv.swapaxes(-1, -2)), 1.0)
    return np.where(ok, np.maximum(w[..., -1], 1.0 / w[..., 0]), np.nan), eigs, t


def _tolerance(*stacks):
    """REL_TOL times the largest entry of each block, or of each block pair,
    of symmetric stacks (..., d, d): the one boundary of every cone test.
    It has no absolute floor, so rescaling an instance changes no verdict."""
    return REL_TOL * functools.reduce(np.maximum, [np.abs(s).max(axis=(-2, -1)) for s in stacks])


def _pd_flags(blocks):
    """``X > 0`` beyond its tolerance for each symmetric block of a list:
    one batched eigensolve per block size."""
    ok = np.ones(len(blocks), dtype=bool)
    for pos, (x,) in _batches(blocks):
        if x.shape[1]:
            ok[pos] = np.linalg.eigvalsh(x)[:, 0] > _tolerance(x)
    return ok


def _geq_flags(xs, ys):
    """``X >= Y`` within the pair's tolerance for each pair of symmetric
    blocks of two lists (PSD is ``X >= 0``): one batched eigensolve per
    block size."""
    ok = np.ones(len(xs), dtype=bool)
    for pos, (x, y) in _batches(xs, ys):
        if x.shape[1]:
            ok[pos] = np.linalg.eigvalsh(x - y)[:, 0] >= -_tolerance(x, y)
    return ok


def eigvalsh_blocks(blocks):
    """Eigenvalues of all symmetric blocks of a list (or of arrays grouped
    by block size), concatenated in no particular order: one batched
    eigensolve per block size."""
    out = [np.linalg.eigvalsh(x).ravel() for _, (x,) in _batches(blocks)]
    return np.concatenate(out) if out else np.zeros(0)


def min_eigenvalue_blocks(blocks):
    """Smallest eigenvalue over a list of symmetric blocks, or arrays
    grouped by block size (inf if none): the smallest eigenvalue of their
    direct sum."""
    w = eigvalsh_blocks(blocks)
    return float(w.min()) if w.size else np.inf


def _batches(*block_lists):
    """Group parallel block lists by block size: yields the positions of
    each size's blocks and, per list, those blocks symmetrized and stacked
    into a (count, d, d) array.  Grouped arguments, ``{d: (count, d, d)}``,
    are used as they are, with positions counted within each size."""
    if isinstance(block_lists[0], dict):
        if any(b.keys() != block_lists[0].keys() for b in block_lists):
            raise ValueError("grouped arguments have different block sizes")
        groups = [(range(len(x)), [b[d] for b in block_lists]) for d, x in block_lists[0].items()]
    else:
        pos_by = {}
        for k, b in enumerate(block_lists[0]):
            pos_by.setdefault(np.shape(b), []).append(k)
        groups = [(pos, [[b[k] for k in pos] for b in block_lists]) for pos in pos_by.values()]
    for pos, stacks in groups:
        stacks = [np.asarray(s, dtype=float) for s in stacks]
        for s in stacks:
            if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape != stacks[0].shape:
                raise ValueError(
                    f"expected square blocks of shape {stacks[0].shape[1:]}, got {s.shape[1:]}"
                )
            if not np.all(np.isfinite(s)):
                raise ValueError("matrix has non-finite entries")
        yield pos, [_sym(s) for s in stacks]


def cho_factor_pd(x, context="matrix"):
    """Cholesky factorization that raises NumericalError with context.

    ``x`` must be symmetric: only its lower triangle is read.
    ``context`` should say what the matrix is ("factor 3 innovation
    covariance", ...) so failures deep inside an iteration are
    attributable.  Returns the lower factor L, ``x = L @ L.T``, with
    zeros above its diagonal.
    """
    return _cholesky(_checked_square(x), context)


def solve_pd(x, b, context="matrix"):
    """Solve ``x @ z = b`` for positive definite ``x = L L^T``: ``z = L^{-T} L^{-1} b``.

    ``x`` must be symmetric: only its lower triangle is read.
    """
    inv = _inverse_factor(x, context)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    if b.ndim not in (1, 2) or b.shape[0] != inv.shape[0]:
        raise ValueError(f"incompatible dimensions ({inv.shape} and {b.shape})")
    return inv.T @ (inv @ b)


def inv_pd(x, context="matrix"):
    """Inverse of a positive definite matrix, symmetrized on the way out.

    ``x`` must be symmetric: only its lower triangle is read.
    """
    inv = _inverse_factor(x, context)
    return symmetrize(inv.T @ inv)


def _inverse_factor(x, context):
    """L^{-1} for ``x = L L^T`` (``cho_factor_pd``), by forward substitution."""
    c = cho_factor_pd(x, context=context)
    return _substitute(c, np.eye(len(c)))


def _is_symmetric(x):
    """Symmetric up to rounding: max|x - x^T| <= 1e-12 max|x|, no per-entry term."""
    return np.abs(x - x.T).max(initial=0.0) <= 1e-12 * np.abs(x).max(initial=0.0)


def _checked_square(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    return x


def _cholesky(x, context):
    """Lower Cholesky factor of a square float64 matrix (lower triangle
    read); NumericalError naming ``context`` if it is not PD.  Only then is
    the order k of its first leading minor that is not PD looked for, one
    factorization per leading minor."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        pass
    for k in range(1, len(x) + 1):
        try:
            np.linalg.cholesky(x[:k, :k])
        except np.linalg.LinAlgError:
            break
    raise NumericalError(
        f"{context} is not positive definite: {k}-th leading minor of "
        "the array is not positive definite",
        condition=_condition_estimate(x),
    )


def _forward_blocks(b, g, sizes, labels):
    """z = L^{-1} G per block of stacks b (n, p, p) and g (n, p, q), with
    B = L L^T: one batched Cholesky (lower triangles read) and one forward
    substitution.  Block k is PD in its leading ``sizes[k]`` rows and
    columns and padded with identity; if one is not PD, each is
    factorized at that size and the first failure is a NumericalError
    naming ``labels[k]``."""
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        for x, s, label in zip(b, sizes, labels):
            _cholesky(x[:s, :s], label)
        raise
    return _substitute(chol, g)


def _substitute(chol, g):
    """z = L^{-1} G for L (..., p, p), lower triangular, and G (..., p, q),
    one matrix or stacks of them: forward substitution over the rows, split
    in halves past 64 rows so that large blocks run in matrix products."""
    p = chol.shape[-1]
    if p > 64:
        h = p // 2
        top = _substitute(chol[..., :h, :h], g[..., :h, :])
        rest = _substitute(chol[..., h:, h:], g[..., h:, :] - chol[..., h:, :h] @ top)
        return np.concatenate([top, rest], axis=-2)
    z = np.empty(g.shape)
    for i in range(p):
        done = (chol[..., i, None, :i] @ z[..., :i, :])[..., 0, :]
        z[..., i, :] = (g[..., i, :] - done) / chol[..., i, i, None]
    return z


def _solve_pd_blocks(a, b, sizes, labels):
    """x = A^{-1} B per block of stacks a (n, d, d), PD, and b (n, d, q):
    ``_forward_blocks`` gives L^{-1}, A = L L^T, and x = L^{-T} L^{-1} B.
    Block k is padded with identity past ``sizes[k]``, as there."""
    inv = _forward_blocks(a, np.broadcast_to(np.eye(a.shape[1]), a.shape), sizes, labels)
    return inv.swapaxes(1, 2) @ (inv @ b)


def _sym(a):
    s = a + a.swapaxes(-1, -2)
    s *= 0.5  # the same bits as / 2.0, without a second temporary
    return s


def _condition_estimate(x):
    try:
        w = np.abs(np.linalg.eigvalsh(x))
        small = float(np.min(w))
        if small == 0.0:
            return np.inf
        return float(np.max(w)) / small
    except Exception:
        return None
