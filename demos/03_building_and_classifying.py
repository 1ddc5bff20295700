#!/usr/bin/env python3
"""Building the restriction-constrained semigroups and classifying them.

T_S(Y)(X) is every self-map of X whose restriction to an invariant subset
Y lies in a prescribed semigroup S(Y); L_S(W)(V) is the linear analogue
over GF(p).  Each structural verdict below comes from a characterization
that inspects only (Y, S(Y)) or (W, S(W)) -- and is then cross-checked by
an exhaustive oracle over the full build.
"""

from resemi import (
    FiniteSemigroup,
    GFMatrix,
    IndexSubset,
    LInstance,
    Subspace,
    TInstance,
    Transformation,
    element_oracle,
    generate,
    semigroup_oracle,
)

# ----- transformations: X = {0,1,2}, Y = {0,1}, S(Y) the symmetric group
sym_y = generate([Transformation([1, 0])])
inst = TInstance(3, IndexSubset(3, [0, 1]), sym_y)
build = inst.build()
print("|T_S(Y)(X)| =", len(build), " (formula: |S(Y)| * n^(n-|Y|) =",
      len(sym_y) * 3 ** (3 - 2), ")")

for mode in ("regular", "inverse", "unit_regular"):
    thm = inst.thm_semigroup(mode)
    orc = semigroup_oracle(build, mode)
    print(f"{mode:>13}: theorem={thm.holds} ({thm.clause}); oracle={orc.holds}")

# element-level: successes come with an explicit verified witness
f = Transformation([0, 1, 0])
verdict = inst.thm_element(f, "unit_regular")
g = verdict.witness
print("\nf =", f.to_text(), "is unit-regular; witness g =", g.to_text(),
      " fgf == f:", (f * g * f) == f)
print("the oracle found its own unit:",
      element_oracle(build, f, "unit_regular").witness.to_text())

# ----- linear maps: V = GF(2)^2, W a line, S(W) the trivial group
w = Subspace(2, 2, [[1, 0]])
s_w = FiniteSemigroup([GFMatrix.identity(2, 1)])
linst = LInstance(2, 2, w, s_w)
lbuild = linst.build()
print("\n|L_S(W)(V)| =", len(lbuild), "->", sorted(m.to_text() for m in lbuild.elements))

for mode in ("regular", "inverse", "unit_regular", "completely_regular"):
    thm = linst.thm_semigroup(mode)
    orc = semigroup_oracle(lbuild, mode)
    print(f"{mode:>18}: theorem={thm.holds} ({thm.clause}); oracle={orc.holds}")

# the two idempotents that break the inverse property, concretely
e1, e2 = GFMatrix(2, [[1, 0], [0, 0]]), GFMatrix(2, [[1, 0], [1, 0]])
print("\nidempotents commute?", e1 * e2 == e2 * e1,
      " (e1e2 =", (e1 * e2).to_text(), ", e2e1 =", (e2 * e1).to_text(), ")")
