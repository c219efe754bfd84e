"""Sparse linear solvers.

The package needs three kinds of solves:

* the one-shot local stage factorises one SPD matrix and solves it against
  hundreds of right-hand sides (:class:`FactorizedOperator`);
* the reference full-FEM solver handles the largest systems and uses either a
  direct factorisation or preconditioned conjugate gradients;
* the global ROM system ``K_ff`` — the stiffness over the free DoFs, with
  the Dirichlet DoFs eliminated, which keeps it symmetric positive definite
  — is a matrix-free operator; GMRES (the paper's choice) and CG use its
  products alone, direct factorisations its assembled ``tocsc()``.

:attr:`SolverOptions.method` is the one solver choice: ``"direct"``
(SuperLU), ``"cg"`` or ``"gmres"`` (both Jacobi-preconditioned), each run by
its backend in :data:`repro.fem.backends.BACKENDS`.  :class:`LinearSolver`
is the front-end: it rejects a non-finite right-hand side, fails a transient
fault over to the direct solve and records :class:`SolveStats` for every
solve.  The PETSc solvers of the paper are replaced by these SciPy
equivalents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import faults
from repro.fem.backends import BACKENDS, FactorizedOperator, SolveStats
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

_logger = get_logger("fem.solver")


@dataclass(frozen=True)
class SolverOptions:
    """Options controlling a sparse linear solve.

    Attributes
    ----------
    method:
        ``"direct"`` (SuperLU), ``"cg"`` (Jacobi-preconditioned conjugate
        gradients, SPD systems only) or ``"gmres"`` (restarted GMRES with a
        Jacobi preconditioner).
    rtol:
        Relative residual tolerance for the iterative methods, in ``(0, 1)``.
    max_iterations:
        Iteration cap for the iterative methods.  For GMRES it counts restart
        cycles, each of up to ``gmres_restart`` Krylov steps.
    gmres_restart:
        Restart length for GMRES, at least 1.
    """

    method: str = "direct"
    rtol: float = 1e-8
    max_iterations: int = 5000
    gmres_restart: int = 100

    def __post_init__(self) -> None:
        if self.method not in BACKENDS:
            raise ValidationError(
                f"method must be 'direct', 'cg' or 'gmres', got {self.method!r}"
            )
        if not 0.0 < self.rtol < 1.0:
            raise ValidationError(f"rtol must lie in (0, 1), got {self.rtol}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.gmres_restart < 1:
            raise ValidationError(
                f"gmres_restart must be >= 1, got {self.gmres_restart}"
            )


class LinearSolver:
    """Front-end dispatching to the backend of ``options.method``."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        self.backend = BACKENDS[self.options.method]
        self.last_stats: SolveStats | None = None

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` and record :class:`SolveStats`."""
        rhs = np.asarray(rhs, dtype=float).ravel()
        if matrix.shape[0] != rhs.size:
            raise ValidationError(
                f"matrix of shape {matrix.shape} incompatible with rhs of size {rhs.size}"
            )
        non_finite = int(np.count_nonzero(~np.isfinite(rhs)))
        if non_finite:
            raise ValidationError(
                f"rhs has {non_finite} non-finite of {rhs.size} entries"
            )
        backend = self.backend
        try:
            # Each backend is a named fault site: an injected transient
            # failure exercises the failover below.
            faults.fault_point(f"fem.backends.{backend.name}")
            solution, stats = backend.solve(matrix, rhs, self.options)
        except faults.TransientFaultError as exc:
            direct = BACKENDS["direct"]
            if backend is direct:
                # Nothing to fail over to: a one-off failure retries in place.
                _logger.warning("solver: transient failure (%s); retrying", exc)
                solution, stats = backend.solve(matrix, rhs, self.options)
            else:
                _logger.warning(
                    "solver: transient failure in backend %s (%s); "
                    "falling back to direct-splu",
                    backend.name,
                    exc,
                )
                solution, stats = direct.solve(matrix, rhs, self.options)
                stats.method = f"{backend.name}->{stats.method}"
        self.last_stats = stats
        return solution


__all__ = ["SolverOptions", "SolveStats", "FactorizedOperator", "LinearSolver"]
