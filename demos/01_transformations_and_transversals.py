#!/usr/bin/env python3
"""Tour of the transformation core.

A Transformation is a total self-map of {0, ..., n-1} stored as its image
tuple.  Composition is left to right: x(fg) = (xf)g, so `f * g` means
"apply f first".
"""

from resemi import (
    IndexSubset,
    Transformation,
    canonical_transversal,
    compose,
    image_kernel,
    restriction,
)
from resemi.transformations import fibers

# f sends 0->1, 1->2, 2->0; g collapses everything onto {0, 1}
f = Transformation([1, 2, 0])
g = Transformation([0, 0, 1])
print("f       =", f.to_text())
print("g       =", g.to_text())
print("f then g =", (f * g).to_text())
print("g then f =", compose(g, f).to_text())

# image, defect (points nothing maps onto) and kernel classes (fibres)
h = Transformation([0, 0, 1, 1])
image, defect, classes = image_kernel(h)
print("\nh =", h.to_text())
print("image  =", image.to_text())
print("defect =", defect.to_text())
print("fibres =", classes)

# Restricting to an invariant subset re-indexes Y to 0..|Y|-1.
y = IndexSubset(4, [0, 1, 2])
print("\nY =", y.to_text(), " h|Y =", restriction(h, y).to_text())
try:
    restriction(Transformation([3, 0, 1, 2]), IndexSubset(4, [0, 1]))
except ValueError as exc:
    print("restricting a non-invariant subset:", exc)

# The canonical transversal pair picks one representative per fibre, with
# representatives inside Y whenever the image point comes from Y.  The
# smallest-index rule makes it deterministic.
k = Transformation([0, 0, 0, 2])
y2 = IndexSubset(4, [0, 1])
pair = canonical_transversal(k, y2, fibers(k))
print("\nk =", k.to_text(), " Y =", y2.to_text())
print("T      =", pair.t.to_text())
print("T on Y =", pair.t_on_y.to_text())

# Those two sets drive the unit-regularity test for restricted maps: the
# count |C(f) \ C(f|Y)| with C(f) = X \ T is independent of which
# compatible transversal you pick.
x_set = set(range(4))
c_f = x_set - set(pair.t.members)
c_fy = set(y2.members) - set(pair.t_on_y.members)
print("C(k) \\ C(k|Y) =", sorted(c_f - c_fy))
