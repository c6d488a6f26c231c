"""The two decomposition constructions and their structure.

The cross-norm family is parameterised by a positive diagonal scaling R, a
row isometry U, weights p and scale factors c; every member multiplies back
to the state and attains the minimal cost.  Restricting U to a square
unitary and fixing the weights gives the equal-norm construction, whose
local operator sets cannot be shrunk while the state stays separable over
them.  With a real orthogonal mixing the local operators stay Hermitian.
"""

import numpy as np

from minsep import (
    DiagonalScaling,
    bell_state,
    cross_norm_decomposition,
    decomposition_cost,
    equal_norm_check,
    equal_norm_decomposition,
    hermitian_decomposition,
    operator_schmidt,
    random_density,
    random_orthogonal,
)
from minsep.bases import phase_point_operators

np.set_printoptions(precision=4, suppress=True)

os = operator_schmidt(bell_state())
sqrt_s = DiagonalScaling.sqrt_s(os)

# Four terms from a rescaled Hadamard mixing: each local operator is a
# mixture of all four Schmidt directions, yet the cost is still 2.
h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
u4 = np.kron(h2, h2).astype(complex) / 2.0  # Sylvester's Hadamard matrix
dec = cross_norm_decomposition(os, sqrt_s, u4, np.full(4, 0.25), np.ones(4))
print("Hadamard member of the cross-norm family on Bell:")
print("  terms =", dec.terms)
print("  reconstruction residual =", np.linalg.norm(dec.reconstruct() - bell_state().rho))
print("  cost =", decomposition_cost(dec, sqrt_s))

# The family also contains decompositions with more than D terms: any wide
# row isometry works, here from the first four rows of a 5x5 DFT matrix.
u5 = np.fft.fft(np.eye(5), norm="ortho")[:4, :]
dec5 = cross_norm_decomposition(os, sqrt_s, u5, np.full(5, 0.2), np.ones(5))
print(f"\nfive-term member: cost = {decomposition_cost(dec5, sqrt_s):.10f}")

# Equal-norm construction with the identity mixing reproduces the Schmidt
# form itself: weights s_k / sum(s).
state = random_density(seed=4, dA=2, dB=2)
os_rand = operator_schmidt(state)
dec_id = equal_norm_decomposition(
    os_rand, DiagonalScaling.identity(4), np.eye(4, dtype=complex), 1.0
)
print("\nequal-norm weights with U = identity:", np.asarray(dec_id.p))
print("normalised Schmidt coefficients:     ", np.asarray(os_rand.s) / os_rand.lambda_total)

# All coefficient vectors share one norm per side; the check reports it.
report = equal_norm_check(dec_id, DiagonalScaling.identity(4))
print("per-term A-side squared norms:", report.w_a, " expected:", report.expected_w)

# Steering the Bell frame onto the phase-point operators: a real orthogonal
# mixing whose columns come from projecting the targets onto the frame.
ws = phase_point_operators().ops
o = np.array([[np.trace(x.conj().T @ w).real for w in ws] for x in os.X]) / np.sqrt(2)
dec_w = hermitian_decomposition(os, DiagonalScaling.identity(4), o, 1.0)
print("\nphase-point frame from the Hermitian equal-norm construction:")
print("  A_1 =\n", dec_w.A[0])
print("  equals W_1:", np.allclose(dec_w.A[0], ws[0]))

# Random real orthogonal mixings keep every local operator Hermitian.
dec_h = hermitian_decomposition(
    os_rand, DiagonalScaling.identity(4), random_orthogonal(4, seed=8), 1.0
)
herm_residual = max(np.max(np.abs(op - op.conj().T)) for op in (*dec_h.A, *dec_h.B))
print(f"\nrandom orthogonal mixing: max Hermiticity residual = {herm_residual:.2e}")
