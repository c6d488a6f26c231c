"""Bipartite states, POVMs, and canonical fixtures.

Random fixtures are driven by ``numpy.random.default_rng`` (the PCG64
generator), so every draw is a pure function of its integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from .core import as_matrix, family, frozen, hermitian_mask, realign
from .tolerances import ATOL, PSD_TOL


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A density operator on A tensor B with local dimensions (dA, dB).

    Construction verifies Hermiticity, unit trace and positive
    semidefiniteness (no eigenvalue below -``PSD_TOL``) up to the shared
    tolerances, and derives the read-only ``realigned`` (:func:`realign`).
    """

    dA: int
    dB: int
    rho: np.ndarray = field(repr=False)
    realigned: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError("local dimensions must be positive")
        rho = as_matrix(self.rho, "rho")
        n = self.dA * self.dB
        if rho.shape != (n, n):
            raise ValueError(f"rho has shape {rho.shape}, expected {(n, n)}")
        if not hermitian_mask(rho):
            raise ValueError("rho is not Hermitian within tolerance")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"tr(rho) = {tr:.12g}, expected 1")
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"rho has eigenvalue {lo:.3e} below -{PSD_TOL:.1e}")
        object.__setattr__(self, "rho", frozen(rho))
        object.__setattr__(self, "realigned", frozen(realign(rho, self.dA, self.dB)))

    @property
    def dim(self) -> int:
        return self.dA * self.dB


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive-operator-valued measure: PSD effects summing to identity."""

    dim: int
    effects: tuple = field(repr=False)

    def __post_init__(self):
        effects = family(self.effects, "effects", self.dim)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        e = np.asarray(effects)
        lo = np.linalg.eigvalsh(0.5 * (e + np.conj(e.transpose(0, 2, 1))))[:, 0]
        bad = np.flatnonzero(~hermitian_mask(e) | (lo < -PSD_TOL))
        if bad.size:
            raise ValueError(f"effects[{bad[0]}] is not positive semidefinite")
        if np.max(np.abs(e.sum(axis=0) - np.eye(self.dim))) > ATOL:
            raise ValueError("effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)

    def __len__(self) -> int:
        return len(self.effects)

    def transpose(self) -> "Povm":
        """The elementwise-transposed POVM (still a valid POVM)."""
        return Povm(self.dim, np.asarray(self.effects).transpose(0, 2, 1))


def max_entangled(d: int) -> BipartiteState:
    """Projector onto (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("max_entangled requires d >= 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return BipartiteState(d, d, np.outer(psi, psi.conj()))


def bell_state() -> BipartiteState:
    """The two-qubit state |phi+><phi+| = max_entangled(2)."""
    return max_entangled(2)


def random_pure_state(seed: int, dA: int, dB: int) -> BipartiteState:
    """Projector onto a Haar-random pure state of dimension dA * dB."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
    v /= np.linalg.norm(v)
    return BipartiteState(dA, dB, np.outer(v, v.conj()))


def haar_projectors(rng, d: int, count: int) -> np.ndarray:
    """``count`` Haar-random pure-state projectors, stacked (count, d, d).

    Each state draws d real parts, then d imaginary parts, from ``rng``.
    """
    z = rng.normal(size=(count, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, None] * v.conj()[:, None, :]


def random_density(seed: int, dA: int, dB: int) -> BipartiteState:
    """Full-rank random density operator G G^dag / tr(G G^dag)."""
    rng = np.random.default_rng(seed)
    n = dA * dB
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return BipartiteState(dA, dB, rho / np.trace(rho))


def product_state(rho_a: np.ndarray, rho_b: np.ndarray) -> BipartiteState:
    """The product state rho_a tensor rho_b."""
    a = as_matrix(rho_a, "rho_a")
    b = as_matrix(rho_b, "rho_b")
    return BipartiteState(a.shape[0], b.shape[0], np.kron(a, b))


def projective_povm(axis: str) -> Povm:
    """Qubit projective measurement along a Pauli axis ('x', 'y' or 'z')."""
    sigma = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
    if axis not in sigma:
        raise ValueError(f"unknown axis {axis!r}; expected 'x', 'y' or 'z'")
    return Povm(2, (0.5 * (PAULI_I + sigma[axis]), 0.5 * (PAULI_I - sigma[axis])))


def identity_povm(d: int) -> Povm:
    """The trivial single-effect measurement {I}."""
    return Povm(d, (np.eye(d, dtype=complex),))


def magic_povm(c: float) -> Povm:
    """The two-effect qubit POVM {c |m><m|, I - c |m><m|}, with |m> the
    magic state of Bloch vector (1, 1, 1)/sqrt(3).  Requires 0 < c <= 1."""
    if not 0 < c <= 1:
        raise ValueError("magic_povm requires 0 < c <= 1")
    m = 0.5 * (PAULI_I + (PAULI_X + PAULI_Y + PAULI_Z) / np.sqrt(3))
    return Povm(2, (c * m, np.eye(2, dtype=complex) - c * m))
