"""Exact computational algebra for modules over polynomial rings.

A finite-dimensional module over a polynomial ring is a tuple of
pairwise-commuting matrices.  When the action is nilpotent with a
one-dimensional socle, the module embeds uniquely into the space of
polynomials carrying the partial-derivative action; the image is a
canonical form that decides isomorphism.  Around that core: exact
rational linear algebra, sparse multivariate polynomials, truncated
differential-operator series, isomorphism extension, and automorphism
groups of monomial submodules.
"""

from importlib import import_module

# Each layer, imported in dependency order, and the names it exports.
_EXPORTS = {
    "errors": """DimensionTooLarge Incompatible IncompatibleMap NilmodError NoCommonEigenline
        NonCommuting NonRationalEigenvalue NotAnEndomorphism NothingToExtend NotNilpotent
        SocleNotOneDimensional TruncationTooLow WrongConstantTerm""",
    "exactalg": "QMatrix Subspace Vector format_rational grlex_key multi_factorial parse_rational vector",
    "multipoly": """MINUS_INFINITY MultiIndex Poly is_lower_set lower_set_closure monomials_of_degree
        monomials_up_to_degree potential""",
    "modcore": "FDModule is_nilpotent socle socle_eigenvalues twist validate",
    "polysub": """ExpSubmodule ModuleMap PolySubmodule action_matrices as_matrices random_nilpotent_module
        submodule_from_polys""",
    "embed": """EmbeddingResult brute_force_isomorphic canonical_form embed_general embed_nilpotent
        is_isomorphic""",
    "diffop": """AutDescriptor AutGroup DiffOpSeries MonomialSubmodule aut_structure extend_iso
        extend_iso_step extract_coeffs monomial_images restrict restriction_kernel_dim series_exp series_log""",
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())
__version__ = "0.1.0"


# PEP 562: the first exported name asked for loads every layer and binds all their names.
def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _EXPORTS.items():
        module = import_module(f".{layer}", __name__)
        globals().update((export, getattr(module, export)) for export in names.split())
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
