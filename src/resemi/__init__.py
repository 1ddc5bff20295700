"""resemi: semigroups of transformations and GF(p) linear maps whose
restrictions lie in a prescribed subsemigroup.

The package builds the two restriction-constrained semigroups (all self-maps
of X whose restriction to an invariant Y lies in S(Y); all linear self-maps
of GF(p)^n whose restriction to an invariant W lies in S(W)), classifies
elements and semigroups by structural characterizations, and cross-checks
every verdict against exhaustive brute-force oracles.

The public names are loaded on first use (PEP 562), each from the one
submodule ``_EXPORTS`` names, so ``import resemi`` loads no submodule and
a CLI command loads only the modules it runs.
"""

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "GFMatrix", "Subspace", "SubspaceTransversal", "all_subspaces", "all_vectors",
        "canonical_transversal_subspace", "image_space", "mat_compose", "mat_inverse",
        "null_space", "restriction_matrix", "restricted_image_space"), "gflinear"),
    **dict.fromkeys(("LInstance", "alpha_family_check"), "linear_semigroup"),
    **dict.fromkeys((
        "FiniteSemigroup", "PropertyVerdict", "SizeCapExceeded", "element_oracle", "generate",
        "inverse_by_unique_inverses", "semigroup_oracle", "subgroup_containing"), "semigroups"),
    **dict.fromkeys(("SweepPlan", "SweepReport", "enumerate_subsemigroups", "run_sweep"), "sweep"),
    "TInstance": "transform_semigroup",
    **dict.fromkeys((
        "IndexSubset", "Transformation", "TransversalPair", "canonical_transversal", "compose",
        "image_kernel", "restricted_image", "restriction"), "transformations"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which ``python -X importtime`` reports
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
