"""The sparse-solver backends behind ``SolverOptions.method``.

Every linear solve in the package — the local stage's repeated
back-substitutions, the global ROM system, the reference full FEM and the
coarse package model — goes through one of the backends defined here.  A
backend bundles two capabilities behind the :class:`SparseBackend` interface:

* ``solve(matrix, rhs, options)`` — a one-shot solve returning the solution
  and a :class:`SolveStats` record, and
* ``factorize(matrix, ordering=None)`` — a reusable factorisation for many
  right-hand sides (the "decompose once" mode of the paper's one-shot local
  stage), optionally in a caller-supplied fill-reducing order.

:data:`BACKENDS` maps each method to its backend; ``SolveStats.method``
reports the backend's name:

``direct`` → ``direct-splu``
    SciPy's SuperLU direct factorisation; the failover of the other two.
``cg`` → ``cg``
    Jacobi-preconditioned conjugate gradients, for symmetric positive
    definite systems.  Falls back to a direct solve when it does not
    converge (``cg+direct-fallback``).
``gmres`` → ``gmres``
    Restarted GMRES with a Jacobi preconditioner (the paper's choice for the
    global system), with scipy's stopping rule and a BLAS-2 Arnoldi step
    (see :func:`_gmres`); ``gmres+direct-fallback`` when it does not
    converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.validation import ValidationError


@dataclass
class SolveStats:
    """Diagnostics of a completed solve."""

    method: str
    iterations: int
    residual_norm: float
    converged: bool
    unknowns: int


class FactorizedOperator:
    """A sparse LU factorisation reused for many right-hand sides.

    The local stage of MORE-Stress solves the same lifted stiffness matrix
    against one right-hand side per Lagrange interpolation DoF; factorising
    once and back-substituting a block of right-hand sides is what makes the
    one-shot stage cheap (paper §4.2).

    ``ordering`` is an optional fill-reducing permutation of ``range(n)``
    (e.g. the nested dissection of
    :meth:`~repro.mesh.structured.StructuredHexMesh.nested_dissection`).
    With it, SuperLU factorises ``matrix[p][:, p]`` in that column order
    instead of its default COLAMD ordering, and :meth:`solve` permutes the
    right-hand side in and the solution back out.

    A matrix with non-finite entries, a singular matrix and an ordering that
    is not a permutation raise :class:`~repro.errors.ValidationError`.
    """

    def __init__(self, matrix: sp.spmatrix, ordering: np.ndarray | None = None):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("matrix must be square to factorise")
        self._shape = matrix.shape
        size = f"{matrix.shape[0]}x{matrix.shape[1]}"
        if not np.isfinite(matrix.data).all():
            raise ValidationError(f"cannot factorise the {size} matrix: non-finite entries")
        permc_spec = "COLAMD"
        if ordering is not None:
            ordering = np.asarray(ordering)
            if (
                ordering.shape != (matrix.shape[0],)
                or not np.issubdtype(ordering.dtype, np.integer)
                or not np.array_equal(np.sort(ordering), np.arange(matrix.shape[0]))
            ):
                raise ValidationError(
                    f"ordering must be a permutation of range({matrix.shape[0]}) "
                    f"to factorise the {size} matrix"
                )
            matrix = matrix[ordering][:, ordering]
            permc_spec = "NATURAL"
        self._ordering = ordering
        try:
            self._lu = spla.splu(matrix, permc_spec=permc_spec)
        except RuntimeError as exc:
            raise ValidationError(f"cannot factorise the {size} matrix: {exc}") from exc

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the factorised matrix."""
        return self._shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one vector or a block of right-hand sides.

        ``rhs`` may have shape ``(n,)`` or ``(n, k)``; the solution has the
        same shape.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self._shape[0]:
            raise ValidationError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self._shape[0]}"
            )
        if self._ordering is None:
            return self._lu.solve(rhs)
        solution = np.empty_like(rhs)
        solution[self._ordering] = self._lu.solve(rhs[self._ordering])
        return solution


def _jacobi_inverse_diagonal(matrix: sp.spmatrix) -> np.ndarray:
    diagonal = matrix.diagonal().astype(float).copy()
    abs_diagonal = np.abs(diagonal)
    scale = float(abs_diagonal.mean()) if abs_diagonal.size else 0.0
    if scale <= 0.0:
        # Entirely zero diagonal: fall back to the identity.
        return np.ones_like(diagonal)
    # Clamp entries that are zero or negligible *relative to the mean
    # diagonal* (e.g. a nearly singular lifted row); inverting them
    # verbatim would blow the preconditioner up by many orders of
    # magnitude.  Clamped rows get the neutral mean-diagonal scaling.
    near_zero = abs_diagonal < 1e-12 * scale
    diagonal[near_zero] = scale
    return 1.0 / diagonal


def _jacobi_preconditioner(matrix: sp.spmatrix) -> spla.LinearOperator:
    inverse = _jacobi_inverse_diagonal(matrix)

    def apply(vector: np.ndarray) -> np.ndarray:
        return inverse * vector

    return spla.LinearOperator(matrix.shape, matvec=apply)


def _givens(a: float, b: float) -> tuple[float, float, float]:
    """``(c, s, r)`` with ``[c s; -s c] @ [a, b] = [r, 0]``."""
    if b == 0.0:
        return 1.0, 0.0, a
    r = math.hypot(a, b)
    return a / r, b / r, r


def _gmres(
    matrix,
    rhs: np.ndarray,
    inverse_diagonal: np.ndarray,
    rtol: float,
    restart: int,
    max_cycles: int,
) -> tuple[np.ndarray, int, int]:
    """Left-preconditioned restarted GMRES; ``(solution, iterations, info)``.

    The iteration and its stopping rule are those of
    :func:`scipy.sparse.linalg.gmres` with ``x0 = 0`` and ``atol = 0``: an
    inner test on the preconditioned residual estimate, an outer test
    ``||b - A x|| <= rtol ||b||`` after each restart cycle, and the gh-8400
    control of the inner tolerance.  ``max_cycles`` caps the restart
    cycles; ``info`` is 0 on convergence and ``max_cycles`` otherwise.

    The Krylov basis is one preallocated ``(restart + 1, n)`` array, so the
    Arnoldi step orthogonalizes with two matrix-vector products per pass
    (classical Gram-Schmidt, applied twice) instead of a loop of dot and
    axpy calls over the basis vectors.
    """
    n = rhs.size
    solution = np.zeros(n)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return solution, 0, 0
    atol = rtol * rhs_norm
    eps = np.finfo(np.float64).eps
    restart = min(restart, n)
    basis = np.empty((restart + 1, n))
    # R of the Givens-rotated Hessenberg matrix, one column per step.
    upper = np.zeros((restart, restart))
    ptol_factor = 1.0
    ptol = float(np.linalg.norm(inverse_diagonal * rhs)) * min(1.0, atol / rhs_norm)
    residual = rhs.copy()
    residual_norm = rhs_norm
    iterations = 0
    for _ in range(max_cycles):
        np.multiply(inverse_diagonal, residual, out=basis[0])
        beta = float(np.linalg.norm(basis[0]))
        basis[0] /= beta
        # Right-hand side of the small least-squares problem.
        g = [beta]
        rotations: list[tuple[float, float]] = []
        breakdown = False
        for col in range(restart):
            w = inverse_diagonal * (matrix @ basis[col])
            w_norm = float(np.linalg.norm(w))
            previous = basis[: col + 1]
            h = previous @ w
            w -= h @ previous
            correction = previous @ w
            w -= correction @ previous
            h += correction
            h_next = float(np.linalg.norm(w))
            if h_next <= eps * w_norm:
                # Lucky breakdown: the Krylov space holds the solution.
                h_next = 0.0
                breakdown = True
            else:
                np.multiply(w, 1.0 / h_next, out=basis[col + 1])
            column = h.tolist()
            for k, (c, s) in enumerate(rotations):
                column[k], column[k + 1] = (
                    c * column[k] + s * column[k + 1],
                    -s * column[k] + c * column[k + 1],
                )
            c, s, column[col] = _givens(column[col], h_next)
            rotations.append((c, s))
            upper[: col + 1, col] = column
            g.append(-s * g[col])
            g[col] *= c
            presid = abs(g[col + 1])
            iterations += 1
            if presid <= ptol or breakdown:
                break
        size = col + 1
        # Back-substitution on R y = g, skipping zero pivots like scipy.
        y = np.array(g[:size])
        if upper[col, col] == 0.0:
            y[col] = 0.0
        for k in range(col, -1, -1):
            if y[k] != 0.0:
                y[k] /= upper[k, k]
                y[:k] -= y[k] * upper[:k, k]
        solution += y @ basis[:size]
        residual = rhs - matrix @ solution
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= atol or breakdown:
            break
        if presid <= ptol:
            # The inner test passed but the outer did not: tighten it.
            ptol_factor = max(eps, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / residual_norm)
    return solution, iterations, 0 if residual_norm <= atol else max_cycles


class SparseBackend:
    """Interface of a sparse-solver backend.

    ``name`` is what ``SolveStats.method`` reports and what the backend's
    fault site ``fem.backends.<name>`` is called.
    """

    name: str = ""

    def factorize(
        self, matrix: sp.spmatrix, ordering: np.ndarray | None = None
    ) -> FactorizedOperator:
        """Factorise ``matrix`` once for repeated back-substitution.

        ``ordering`` is an optional fill-reducing permutation (see
        :class:`FactorizedOperator`).  Iterative backends have no
        factorisation; they delegate to the direct backend (the local stage
        always decomposes once, per the paper).
        """
        return FactorizedOperator(matrix, ordering)

    def solve(
        self, matrix: sp.spmatrix, rhs: np.ndarray, options
    ) -> tuple[np.ndarray, SolveStats]:
        """Solve ``matrix @ x = rhs``; return ``(solution, stats)``.

        ``matrix`` is a sparse matrix or a
        :class:`scipy.sparse.linalg.LinearOperator` with ``diagonal()``,
        ``tocsr()`` and ``tocsc()`` (the global stage's ``K_ff``).
        """
        raise NotImplementedError


class DirectSuperLUBackend(SparseBackend):
    """SciPy SuperLU direct factorisation."""

    name = "direct-splu"

    def solve(self, matrix, rhs, options):
        solution = self.factorize(matrix).solve(rhs)
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        stats = SolveStats(
            method=self.name,
            iterations=1,
            residual_norm=residual,
            converged=True,
            unknowns=rhs.size,
        )
        return solution, stats


class _IterativeBackend(SparseBackend):
    """Shared plumbing of the Jacobi-preconditioned Krylov backends."""

    def _run(self, matrix, rhs, options):
        """Run the Krylov method; return ``(solution, iterations, info)``."""
        raise NotImplementedError

    def solve(self, matrix, rhs, options):
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
        solution, iterations, info = self._run(matrix, rhs, options)
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        rhs_norm = float(np.linalg.norm(rhs))
        converged = info == 0 or (
            rhs_norm > 0 and residual <= 10 * options.rtol * rhs_norm
        )
        stats = SolveStats(
            method=self.name,
            iterations=iterations,
            residual_norm=residual,
            converged=bool(converged),
            unknowns=rhs.size,
        )
        if not converged:
            # Fall back to a direct solve rather than silently returning a
            # wrong answer; callers see the event through the stats label.
            solution = FactorizedOperator(matrix).solve(rhs)
            residual = float(np.linalg.norm(matrix @ solution - rhs))
            stats = SolveStats(
                method=f"{self.name}+direct-fallback",
                iterations=iterations,
                residual_norm=residual,
                converged=True,
                unknowns=rhs.size,
            )
        return solution, stats


class JacobiCGBackend(_IterativeBackend):
    """Jacobi-preconditioned conjugate gradients (SPD systems only)."""

    name = "cg"

    def _run(self, matrix, rhs, options):
        iterations = 0

        def count_iterations(_):
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            matrix,
            rhs,
            rtol=options.rtol,
            maxiter=options.max_iterations,
            M=_jacobi_preconditioner(matrix),
            callback=count_iterations,
        )
        return solution, iterations, info


class JacobiGMRESBackend(_IterativeBackend):
    """Restarted GMRES with a Jacobi preconditioner (the paper's choice)."""

    name = "gmres"

    def _run(self, matrix, rhs, options):
        return _gmres(
            matrix,
            rhs,
            _jacobi_inverse_diagonal(matrix),
            options.rtol,
            options.gmres_restart,
            options.max_iterations,
        )


#: The backend of each ``SolverOptions.method``.
BACKENDS: dict[str, SparseBackend] = {
    "direct": DirectSuperLUBackend(),
    "cg": JacobiCGBackend(),
    "gmres": JacobiGMRESBackend(),
}


__all__ = [
    "SolveStats",
    "FactorizedOperator",
    "SparseBackend",
    "DirectSuperLUBackend",
    "JacobiCGBackend",
    "JacobiGMRESBackend",
    "BACKENDS",
]
