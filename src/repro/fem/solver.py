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

The actual numerics live in the pluggable backends of
:mod:`repro.fem.backends` (SuperLU, Jacobi-preconditioned CG/GMRES and the
optional CHOLMOD/pyamg backends); :class:`LinearSolver` is the front-end that
resolves the configured backend — with graceful fallback when an optional
backend is missing — and records :class:`SolveStats` for every solve.  The
PETSc backend of the paper is replaced by these SciPy equivalents; the solver
options dataclass keeps the choice explicit and testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import faults
from repro.fem.backends import (
    FactorizedOperator,
    SolveStats,
    canonical_backend_name,
    resolve_backend,
)
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

_logger = get_logger("fem.solver")

#: Legacy ``method`` values and the backend each one routes to.
_METHOD_BACKENDS = {"direct": "direct-splu", "cg": "cg", "gmres": "gmres"}


@dataclass(frozen=True)
class SolverOptions:
    """Options controlling a sparse linear solve.

    Attributes
    ----------
    method:
        ``"direct"`` (SuperLU), ``"cg"`` (Jacobi-preconditioned conjugate
        gradients, SPD systems only) or ``"gmres"`` (restarted GMRES with a
        Jacobi preconditioner).  Kept for backward compatibility; ``backend``
        takes precedence when set.
    backend:
        Name of a :mod:`repro.fem.backends` backend (``"direct-splu"``,
        ``"cg"``, ``"gmres"``, ``"cholmod"``, ``"pyamg"`` or an alias such as
        ``"direct"``).  ``None`` derives the backend from ``method``.
        Requesting an unavailable optional backend falls back along its
        fallback chain at solve time; the substitution is recorded in
        :attr:`SolveStats.method` as ``"requested->actual"``.
    rtol:
        Relative residual tolerance for the iterative methods, in ``(0, 1)``.
    max_iterations:
        Iteration cap for the iterative methods.  For GMRES it counts restart
        cycles, each of up to ``gmres_restart`` Krylov steps.
    gmres_restart:
        Restart length for GMRES, at least 1.
    """

    method: str = "direct"
    backend: str | None = None
    rtol: float = 1e-8
    max_iterations: int = 5000
    gmres_restart: int = 100

    def __post_init__(self) -> None:
        if self.method not in _METHOD_BACKENDS:
            raise ValidationError(
                f"method must be 'direct', 'cg' or 'gmres', got {self.method!r}"
            )
        if self.backend is not None:
            # Normalize aliases eagerly so equal configurations compare equal.
            object.__setattr__(
                self, "backend", canonical_backend_name(self.backend)
            )
        if not 0.0 < self.rtol < 1.0:
            raise ValidationError(f"rtol must lie in (0, 1), got {self.rtol}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.gmres_restart < 1:
            raise ValidationError(
                f"gmres_restart must be >= 1, got {self.gmres_restart}"
            )

    @property
    def effective_backend(self) -> str:
        """The backend name this configuration requests."""
        return self.backend or _METHOD_BACKENDS[self.method]


class LinearSolver:
    """Front-end dispatching to the configured sparse-solver backend."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        #: The backend :meth:`solve` dispatches to: the configured one, or
        #: its fallback when that is unavailable.
        self.backend, self._requested = resolve_backend(
            self.options.effective_backend
        )
        self.last_stats: SolveStats | None = None

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` and record :class:`SolveStats`."""
        rhs = np.asarray(rhs, dtype=float).ravel()
        if matrix.shape[0] != rhs.size:
            raise ValidationError(
                f"matrix of shape {matrix.shape} incompatible with rhs of size {rhs.size}"
            )
        backend, requested = self.backend, self._requested
        answered = backend
        try:
            # Each backend is a named fault site: an injected transient
            # failure exercises the fallback chain below.
            faults.fault_point(f"fem.backends.{backend.name}")
            solution, stats = backend.solve(matrix, rhs, self.options)
        except faults.TransientFaultError as exc:
            if backend.name == "direct-splu":
                # Bottom of the chain: a one-off failure retries in place.
                _logger.warning("solver: transient failure (%s); retrying", exc)
                solution, stats = backend.solve(matrix, rhs, self.options)
            else:
                _logger.warning(
                    "solver: transient failure in backend %s (%s); "
                    "falling back to direct-splu",
                    backend.name,
                    exc,
                )
                answered, _ = resolve_backend("direct-splu")
                solution, stats = answered.solve(matrix, rhs, self.options)
        if answered.name != requested:
            # A different backend answered (unavailable at resolution time,
            # or failed over mid-solve); record the substitution.
            stats.method = f"{requested}->{stats.method}"
        self.last_stats = stats
        return solution


__all__ = ["SolverOptions", "SolveStats", "FactorizedOperator", "LinearSolver"]
