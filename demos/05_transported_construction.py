"""From the maximally entangled state to minimal quantum-augmented spaces.

A full-Schmidt-rank state is the image of the maximally entangled state
under invertible local maps built from its Schmidt form.  When the trace
vectors of the two frames coincide (condition A) an orthogonal alignment
rotates the reference basis into one whose images all have unit trace, and
when no quantum state is stretched to 2-norm sqrt(d) by the inverse maps
(condition B) those images, together with the local quantum states, form
hulls that cannot be shrunk.
"""

import numpy as np

from minsep import (
    bell_state,
    build_maps,
    build_w_basis,
    check_condition_a,
    check_condition_b,
    construct_alignment,
    max_entangled,
    minimal_quantum_spaces,
    operator_schmidt,
    quantum_augmented_feasible,
    transported_cost,
    transported_decomposition,
)
from minsep.core import realign, unrealign
from minsep.states import BipartiteState

np.set_printoptions(precision=4, suppress=True)

bell = bell_state()
os = operator_schmidt(bell)

# Condition A: the vectors e_j = sqrt(s_j) tr(X_j) and f_j = sqrt(s_j) tr(Y_j)
# must be identical unit vectors.
cond_a = check_condition_a(os)
print("condition A on Bell: passed =", cond_a.passed)
print("  e =", cond_a.e)

# The maps send the reference basis into the Schmidt frames.  Each is one
# d^2 x d^2 matrix over vec(sigma), F_A = X diag(sqrt(s)) C^dag and
# F_B = Y diag(sqrt(s)) C'^dag (C' = [vec(C_j^T)]), and the joint map carries
# the maximally entangled state onto the target: on the realignment it acts
# as R -> F_A R F_B^T.
maps = build_maps(os)
sqrt_s = np.sqrt(os.s)
fwd_a = (os.X.vecs.T * sqrt_s) @ maps.basis.ops.vecs.conj()
fwd_b = (os.Y.vecs.T * sqrt_s) @ maps.basis.ops.tvecs.conj()
joint = unrealign(fwd_a @ realign(max_entangled(2).rho, 2, 2) @ fwd_b.T, 2, 2)
print("\njoint map reproduces Bell:", np.allclose(joint, bell.rho, atol=1e-12))

# Condition B: the spectral criterion min_k s_k > 1/d^2, exact, with no sampling.
cond_b = check_condition_b(maps)
print(f"condition B: min s = {cond_b.min_s}, margin over 1/d^2 = {cond_b.margin},"
      f" inverse-map spectral norm = {cond_b.bound}, ceiling = {cond_b.ceiling:.4f}, passed = {cond_b.passed}")

# The alignment maps e to the uniform vector; the rotated basis W has
# unit-trace images on both sides.
alignment = construct_alignment(cond_a)
w = build_w_basis(maps, alignment)
print("\nalignment T e =", alignment.T @ cond_a.e)
image = (fwd_a @ w.ops[0].reshape(-1)).reshape(2, 2)
print("trace of F_A(W_1):", np.trace(image).real)

# The transported decomposition: d^2 uniform terms, cost d under the
# inverse-map norms.
dec = transported_decomposition(maps, w)
print("\ntransported decomposition of Bell:")
print("  weights =", np.asarray(dec.p))
print("  residual =", np.linalg.norm(dec.reconstruct() - bell.rho))
print("  cost under inverse-map norms =", transported_cost(dec, maps))

# The resulting spaces include the quantum states; a sampled fit confirms
# the state is feasible and leans only on the image operators.
va, vb = minimal_quantum_spaces(maps, w, mode="convex")
result = quantum_augmented_feasible(bell, va, vb, sample_budget=30, seed=0)
print("\nquantum-augmented fit: feasible =", result.feasible)
print("  weight on sampled quantum states =",
      float(np.sum(result.weights[4:, :]) + np.sum(result.weights[:4, 4:])))

# A weakly entangled pure state fails condition B: its smallest Schmidt
# coefficient drops below 1/d^2.
theta = 0.1
psi = np.zeros(4, dtype=complex)
psi[0], psi[3] = np.cos(theta), np.sin(theta)
weak = BipartiteState(2, 2, np.outer(psi, psi.conj()))
weak_report = check_condition_b(build_maps(operator_schmidt(weak)))
print(f"\ntheta = {theta}: min s = {weak_report.min_s:.5f}, margin over 1/d^2 ="
      f" {weak_report.margin:.5f} -> passed = {weak_report.passed}")
