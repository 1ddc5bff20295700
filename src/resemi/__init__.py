"""resemi: semigroups of transformations and GF(p) linear maps whose
restrictions lie in a prescribed subsemigroup.

The package builds the two restriction-constrained semigroups (all self-maps
of X whose restriction to an invariant Y lies in S(Y); all linear self-maps
of GF(p)^n whose restriction to an invariant W lies in S(W)), classifies
elements and semigroups by structural characterizations, and cross-checks
every verdict against exhaustive brute-force oracles.
"""

from .gflinear import (
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    all_subspaces,
    all_vectors,
    canonical_transversal_subspace,
    image_space,
    mat_compose,
    mat_inverse,
    null_space,
    restriction_matrix,
    restricted_image_space,
)
from .linear_semigroup import LInstance, alpha_family_check
from .semigroups import (
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    element_oracle,
    generate,
    inverse_by_unique_inverses,
    semigroup_oracle,
    subgroup_containing,
)
from .sweep import SweepPlan, SweepReport, enumerate_subsemigroups, run_sweep
from .transform_semigroup import TInstance
from .transformations import (
    IndexSubset,
    Transformation,
    TransversalPair,
    canonical_transversal,
    compose,
    image_kernel,
    restricted_image,
    restriction,
)

__version__ = "0.1.0"
