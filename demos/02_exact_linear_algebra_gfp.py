#!/usr/bin/env python3
"""Tour of the exact GF(p) linear algebra layer.

Everything is integer arithmetic mod a prime; matrices act on row vectors
(v -> v @ M), so composing maps left to right is plain matrix product.
Subspaces are stored as reduced-row-echelon bases, which makes equality of
subspaces a data comparison.
"""

from resemi import (
    GFMatrix,
    Subspace,
    all_subspaces,
    canonical_transversal_subspace,
    mat_compose,
    null_space,
    restriction_matrix,
)

# the RREF of m is the canonical basis of its row space, padded with zero rows
p = 3
m = GFMatrix(p, [[2, 1], [1, 2]])
basis = Subspace(p, m.cols, m.entries).basis
canon = GFMatrix(p, basis + ((0,) * m.cols,) * (m.rows - len(basis)), cols=m.cols)
print("m =", m.to_text(), " rref =", canon.to_text(), " rank =", m.rank)

a = GFMatrix(2, [[0, 1], [1, 0]])
print("swap squared =", mat_compose(a, a).to_text())

# null space under the row action: vectors v with v @ F = 0
f = GFMatrix(2, [[1, 0], [0, 0]])
print("\nN(f) for f =", f.to_text(), "is spanned by", null_space(f).basis)

# the subspace lattice: sums and intersections are exact and canonical
u = Subspace(2, 2, [[1, 1]])
w = Subspace(2, 2, [[1, 0]])
print("\nU =", u.basis, " W =", w.basis)
print("U + W =", u.sum(w).basis, " U meet W dim =", u.intersect(w).dim,
      " codim U =", u.codim)

# every subspace of GF(2)^3, one canonical basis each
print("\nsubspaces of GF(2)^3 by dimension:",
      [len(list(all_subspaces(2, 3, d))) for d in range(4)])

# restriction to an invariant subspace = coordinate matrix in W's basis
g = GFMatrix(2, [[1, 0], [1, 1]])
print("\ng =", g.to_text(), " g|W =", restriction_matrix(g, w).to_text())
try:
    restriction_matrix(GFMatrix(2, [[0, 1], [0, 0]]), w)
except ValueError as exc:
    print("non-invariant subspace:", exc)

# transversal subspace: a direct complement U of N(f) whose trace on W is
# a complement of N(f|W) inside W; deterministic preimage choices make it
# reproducible
nil = GFMatrix(2, [[0, 0], [1, 0]])
tr = canonical_transversal_subspace(nil, w)
print("\nnilpotent =", nil.to_text())
print("U =", tr.u.basis, " U meet W dim =", tr.u_meet_w.dim)
print("codim(W + U) =", w.sum(tr.u).codim)
