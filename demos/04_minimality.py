"""Certifying that generator sets cannot be shrunk.

Membership of a state in the hull of product operators is a nonnegative
least squares problem; the residual decides feasibility.  A generating set
is minimal when deleting any single generator makes the fit infeasible by a
macroscopic margin.
"""

import numpy as np

from minsep import StateSpace, bell_state, deletion_minimality, separable_feasible
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators

np.set_printoptions(precision=4, suppress=True)

bell = bell_state()
ws = phase_point_operators().ops
va = StateSpace(2, ws, "convex")
vb = StateSpace(2, tuple(w.T for w in ws), "convex")

# The Bell state is a uniform mixture of the four phase-point products.
result = separable_feasible(bell, va, vb)
print("Bell over the phase-point spaces:")
print("  feasible =", result.feasible, " residual =", f"{result.residual:.2e}")
print("  weights:\n", result.weights)

# Remove one generator and the fit breaks down: the state needs all four
# directions of its Schmidt span.
short = separable_feasible(bell, va.without(0), vb)
print(f"\nwithout W_1: feasible = {short.feasible}, residual = {short.residual:.4f}")

# The deletion test automates this for every generator on both sides.  A
# least-squares lower bound on the residual ("ls_bound") decides most
# deletions without a fit, so a row can read below the achieved residual
# printed above; the rest run the nonnegative fit ("nnls").
report = deletion_minimality(bell, va, vb)
print("\ndeletion test over all 8 generators: passed =", report.passed)
for record in report.records:
    print(f"  side {record.side} index {record.index}: residual {record.residual:.4f} ({record.decided_by})")

# The Pauli frame (the stabiliser-style decomposition) is equally minimal.
pauli_va = StateSpace(2, (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z), "convex")
pauli_vb = StateSpace(2, (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z), "convex")
print("\nPauli frame minimal:", deletion_minimality(bell, pauli_va, pauli_vb).passed)

# A padded space fails: deleting the redundant identity stays feasible.
padded = StateSpace(2, ws + (PAULI_I,), "convex")
padded_report = deletion_minimality(bell, padded, vb)
print("padded space minimal:", padded_report.passed)
for record in padded_report.records:
    if record.feasible:
        print(f"  redundant generator: side {record.side} index {record.index} ({record.decided_by})")
