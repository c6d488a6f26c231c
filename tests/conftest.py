"""Shared helpers for building non-optimal decompositions and measuring how
far a decomposition sits from the proportionality structure of the optimal
family, seeded near-maximally-entangled states, local maps applied to one
operator, the forward maps of a SchmidtMaps, and an order-free 2-norm."""

import math

import numpy as np

from minsep.decompositions import SeparableDecomposition, random_unitary
from minsep.states import BipartiteState


def apply_map(m, sigma):
    """A local map held as a d^2 x d^2 matrix over row-major vec(sigma),
    applied to one d x d operator."""
    d = np.shape(sigma)[0]
    return (m @ np.asarray(sigma).reshape(-1)).reshape(d, d)


def forward_maps(maps):
    """The forward maps of a SchmidtMaps as d^2 x d^2 matrices over row-major
    vec(sigma), built from its Schmidt form and reference basis:
    F_A = X diag(sqrt(s)) C^dag and F_B = Y diag(sqrt(s)) C'^dag, C' = [vec(C_j^T)]."""
    sqrt_s = np.sqrt(maps.os.s)
    c, ct = maps.basis.ops.vecs.T, maps.basis.ops.tvecs.T
    return (maps.os.X.vecs.T * sqrt_s) @ c.conj().T, (maps.os.Y.vecs.T * sqrt_s) @ ct.conj().T


def frob_norm(m: np.ndarray) -> float:
    """2-norm sqrt(tr(M^dag M)), i.e. the Frobenius norm.

    The squared real and imaginary parts are summed in sorted order, so the
    result depends only on the multiset of entries, not on their order (it
    is not correctly rounded): any entry permutation, such as :func:`realign`,
    :func:`unrealign` or a transpose, leaves it bit-for-bit unchanged.  A
    BLAS dot product, as in ``np.linalg.norm``, adds in an order set by its
    blocking and can differ in the last ulp.
    """
    v = np.ascontiguousarray(m, dtype=complex).view(float)
    return math.sqrt(float(np.sum(np.sort(v * v, axis=None))))


def near_max_entangled(seed, d):
    """(U tensor V) sum_i sqrt(lam_i) |ii> with lam within 20% of uniform, so
    min lam > 1/d^2 and both conditions of the transported construction hold."""
    rng = np.random.default_rng(seed)
    lam = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, d)
    lam /= lam.sum()
    psi = random_unitary(d, seed + 1) @ np.diag(np.sqrt(lam)) @ random_unitary(d, seed + 2).T
    v = psi.reshape(-1)
    return BipartiteState(d, d, np.outer(v, v.conj()))


def random_mixed_decomposition(os, seed):
    """A valid but generically non-optimal decomposition of reconstruct(os).

    Takes a random invertible coefficient matrix F for the A side and solves
    for the B side so the weighted sum of coefficient outer products equals
    diag(s).  The result reconstructs the state exactly but violates the
    proportionality structure of cost-optimal decompositions.
    """
    rng = np.random.default_rng(seed)
    D = os.D
    while True:
        f = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        if np.linalg.cond(f) < 1e4:
            break
    p = rng.uniform(0.5, 1.5, size=D)
    p /= p.sum()
    # B coefficients solve  sum_k p_k a^k (b^k)^dag = diag(s).
    b_mat = np.diag(os.s) @ np.linalg.inv(f).conj().T @ np.diag(1.0 / p)
    a_coeff = tuple(f[:, k] for k in range(D))
    b_coeff = tuple(b_mat[:, k] for k in range(D))
    ops_a = tuple(sum(ai * x for ai, x in zip(a, os.X)) for a in a_coeff)
    ops_b = tuple(sum(np.conj(bi) * y for bi, y in zip(b, os.Y)) for b in b_coeff)
    return SeparableDecomposition(p, ops_a, ops_b, a_coeff, b_coeff)


def proportionality_violation(dec, scaling):
    """Largest relative distance of R^-1 b^k from the nonnegative ray of R a^k.

    Zero for every member of the cost-optimal family; positive otherwise.
    """
    worst = 0.0
    for a, b in zip(dec.a_coeff, dec.b_coeff):
        ra = scaling.r * a
        rb = b / scaling.r
        c = max(0.0, float(np.real(np.vdot(ra, rb))) / float(np.vdot(ra, ra).real))
        worst = max(worst, float(np.linalg.norm(rb - c * ra)) / max(np.linalg.norm(rb), 1e-300))
    return worst
