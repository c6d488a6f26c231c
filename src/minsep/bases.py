"""Orthogonal operator bases: the Hermitian (Gell-Mann) basis and the qubit phase points.

A basis is normalised by its dimension: tr(C_i^dag C_j) = d delta_ij.
Complete bases contain d^2 elements; partial collections (used as fixtures)
are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import as_matrix, family

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """A set of d x d operators with tr(C_i^dag C_j) = d delta_ij."""

    dim: int
    ops: tuple = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        ops = family(self.ops, "ops", self.dim)
        object.__setattr__(self, "ops", ops)
        if len(ops) > self.dim**2:
            raise ValueError(f"{len(ops)} operators exceed d^2 = {self.dim**2}")
        gram = self.gram()
        target = self.dim * np.eye(len(ops))
        dev = np.abs(gram - target).max() if len(ops) else 0.0
        if dev > 1e-8:
            raise ValueError(f"basis is not orthogonal with kappa={self.dim}: deviation {dev:.3e}")

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def complete(self) -> bool:
        return len(self.ops) == self.dim**2

    def gram(self) -> np.ndarray:
        """Gram matrix tr(C_i^dag C_j)."""
        v = self.ops.vecs
        return v.conj() @ v.T

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients of x in this basis: x = sum_i c_i C_i."""
        x = as_matrix(x, "x")
        return self.ops.vecs.conj() @ x.reshape(-1) / self.dim


def phase_point_operators() -> OperatorBasis:
    """The four qubit phase-point operators W_i = (I + r_i . sigma) / 2.

    The Bloch vectors r_i are (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1); each
    W_i has unit trace and tr(W_i W_j) = 2 delta_ij, and they sum to 2 I.
    """
    bloch = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    ops = tuple(
        0.5 * (PAULI_I + rx * PAULI_X + ry * PAULI_Y + rz * PAULI_Z)
        for rx, ry, rz in bloch
    )
    return OperatorBasis(2, ops)


@cache
def hermitian_basis(d: int) -> OperatorBasis:
    """A complete Hermitian basis: identity plus generalised
    Gell-Mann matrices scaled to tr(G_i G_j) = d delta_ij.

    The identity comes first; at d = 2 this reproduces the Pauli basis.  The
    basis is immutable, so one instance per d is built and shared.
    """
    if d < 1:
        raise ValueError("hermitian_basis requires d >= 1")
    scale = np.sqrt(d / 2.0)
    ops = [np.eye(d, dtype=complex)]
    # Symmetric and antisymmetric off-diagonal pairs.
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            ops.append(scale * sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            ops.append(scale * asym)
    # Traceless diagonal ladder.
    for m in range(1, d):
        diag = np.zeros(d)
        diag[:m] = 1.0
        diag[m] = -m
        diag *= np.sqrt(d / (m * (m + 1)))
        ops.append(np.diag(diag).astype(complex))
    return OperatorBasis(d, tuple(ops))


@cache
def _frame(d: int) -> tuple:
    """The orthonormal Hermitian frame P, the vec(C_j) of ``hermitian_basis(d)`` over sqrt(d) as
    columns, with P^dag and conj(P), built once per d: no caller writes to them.  P is unitary, and
    the coordinates P^dag vec(X) of a Hermitian X are real."""
    frame = hermitian_basis(d).ops.vecs.T / np.sqrt(d)
    return frame, frame.conj().T, np.conj(frame)

