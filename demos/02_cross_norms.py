"""Transformed 2-norms and the cross-norm lower bound.

Pushing an operator through a fixed invertible linear map and taking the
2-norm gives a norm with a strict triangle inequality.  On bipartite
operators the induced cross norm -- the cheapest product decomposition as
measured by sum_k p_k ||R a^k|| ||R^-1 b^k|| -- equals the sum of the
Schmidt coefficients for every positive diagonal R.
"""

import numpy as np

from minsep import (
    DiagonalScaling,
    attained_costs,
    bell_state,
    cross_norm_value,
    lambda_norm,
    operator_schmidt,
    random_density,
)
from minsep.bases import PAULI_X

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(0)

# A transformed norm: coefficients of the operator in an orthonormal frame,
# hit with a matrix, then measured in Euclidean length.
print("||sigma_x|| under the identity map:", lambda_norm(PAULI_X, np.eye(4)))
lam = np.diag([2.0, 1.0, 1.0, 1.0])
print("||I/sqrt(2)|| under diag(2,1,1,1):  ", lambda_norm(np.eye(2) / np.sqrt(2), lam))

# Strict triangle inequality: equality needs nonnegative-proportional pairs.
x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
gap = lambda_norm(x, lam) + lambda_norm(y, lam) - lambda_norm(x + y, lam)
print(f"triangle gap for a random pair: {gap:.4f} (strictly positive)")
gap_prop = lambda_norm(x, lam) + lambda_norm(3 * x, lam) - lambda_norm(4 * x, lam)
print(f"triangle gap for y = 3x:        {gap_prop:.2e} (zero)")

# The cross-norm value of the Bell state is 2, independent of the scaling.
os = operator_schmidt(bell_state())
print("\ncross-norm value of Bell:", cross_norm_value(os))

# Any decomposition's cost is bounded below by that value; members of the
# optimal family (here U = I, p = 1/D, c = 1) attain it for the scaling they
# were built with.
scalings = [DiagonalScaling(np.exp(rng.normal(0, 0.5, os.D))) for _ in range(3)]
for r, cost in zip(scalings, attained_costs(os, scalings)):
    print(f"  scaling {np.asarray(r.r)} -> cost {cost:.10f}")

# A generic decomposition of a random state costs strictly more.
state = random_density(seed=23, dA=2, dB=2)
os_rand = operator_schmidt(state)
value = cross_norm_value(os_rand)
scaling = DiagonalScaling.identity(os_rand.D)

# Mix the Schmidt terms with a random invertible matrix (see tests/conftest
# for the same construction): still a valid decomposition, higher cost.
f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
p = np.full(4, 0.25)
b_mat = np.diag(os_rand.s) @ np.linalg.inv(f).conj().T @ np.diag(1.0 / p)
cost = sum(
    pk * np.linalg.norm(f[:, k]) * np.linalg.norm(b_mat[:, k])
    for k, pk in enumerate(p)
)
print(f"\nrandom 2x2 state: optimal value = {value:.4f}, random-mixing cost = {cost:.4f}")
