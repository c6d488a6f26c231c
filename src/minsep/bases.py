"""Orthogonal operator bases: Pauli, Heisenberg-Weyl, Gell-Mann, phase-point.

A basis is stored together with its normalisation constant kappa, defined by
tr(C_i^dag C_j) = kappa * delta_ij.  Complete bases contain d^2 elements;
partial collections (used as fixtures) are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import as_matrix, combine, family, stack
from .tolerances import ATOL

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class OperatorBasis:
    """A set of pairwise Frobenius-orthogonal d x d operators.

    ``normalization`` is kappa with tr(C_i^dag C_j) = kappa delta_ij.
    """

    dim: int
    ops: tuple = field(repr=False)
    normalization: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        ops = family(self.ops, "ops", self.dim)
        object.__setattr__(self, "ops", ops)
        if len(ops) > self.dim**2:
            raise ValueError(f"{len(ops)} operators exceed d^2 = {self.dim**2}")
        gram = self.gram()
        target = self.normalization * np.eye(len(ops))
        dev = np.max(np.abs(gram - target)) if len(ops) else 0.0
        if dev > 1e-8:
            raise ValueError(f"basis is not orthogonal with kappa={self.normalization}: deviation {dev:.3e}")

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def complete(self) -> bool:
        return len(self.ops) == self.dim**2

    @property
    def vecs(self) -> np.ndarray:
        """The operators as the rows vec(C_k) of an (N, d^2) array."""
        return stack(self.ops, self.dim).reshape(len(self.ops), self.dim**2)

    def gram(self) -> np.ndarray:
        """Gram matrix tr(C_i^dag C_j)."""
        v = self.vecs
        return v.conj() @ v.T

    def rescaled(self, kappa: float) -> "OperatorBasis":
        """The same basis rescaled to a different normalisation constant."""
        factor = np.sqrt(kappa / self.normalization)
        return OperatorBasis(self.dim, factor * stack(self.ops, self.dim), kappa)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients of x in this basis: x = sum_i c_i C_i."""
        x = as_matrix(x, "x")
        return self.vecs.conj() @ x.reshape(-1) / self.normalization

    def assemble(self, coeffs) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (len(self.ops),):
            raise ValueError(f"expected {len(self.ops)} coefficients, got {coeffs.shape}")
        return combine(coeffs, stack(self.ops, self.dim))


def pauli_basis() -> OperatorBasis:
    """The qubit basis {I, sigma_x, sigma_y, sigma_z} with kappa = 2."""
    return OperatorBasis(2, (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z), 2.0)


def heisenberg_weyl_basis(d: int) -> OperatorBasis:
    """The d^2 unitaries X^a Z^b with kappa = d, ordered row-major in (a, b).

    X is the cyclic shift |j> -> |j+1 mod d| and Z = diag(omega^j) with
    omega = exp(2 pi i / d).
    """
    if d < 2:
        raise ValueError("heisenberg_weyl_basis requires d >= 2")
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=complex)
    for _a in range(d):
        zb = np.eye(d, dtype=complex)
        for _b in range(d):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return OperatorBasis(d, tuple(ops), float(d))


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
    return OperatorBasis(2, ops, 2.0)


@cache
def hermitian_basis(d: int) -> OperatorBasis:
    """A complete Hermitian basis with kappa = d: identity plus generalised
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
    return OperatorBasis(d, tuple(ops), float(d))


def validate_basis(basis: OperatorBasis, tol: float = ATOL) -> float:
    """Largest deviation of the Gram matrix from kappa * I."""
    gram = basis.gram()
    dev = float(np.max(np.abs(gram - basis.normalization * np.eye(len(basis)))))
    if dev > tol:
        raise ValueError(f"Gram deviation {dev:.3e} exceeds {tol:.1e}")
    return dev
