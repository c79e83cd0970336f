"""qsymk: exact computations in graded quasisymmetric function spaces.

Compositions of n index the monomial and fundamental bases of the
degree-n component; descent statistics partition the compositions into
equivalence classes, and each statistic's kernel is the span of the
F-differences within classes.  This package computes those kernels with
exact rational arithmetic and certifies spanning sets, bases, monomial
characterizations, and the ideal property at desk-scale degrees.

Submodules load on first use (PEP 562): `qsymk.X` imports the module
that defines X and keeps X here, so a later lookup is a plain attribute.
"""

import importlib

# each submodule and the names it exports here
_EXPORTS = {
    "compositions": "Composition DescentSet complement composition_of compositions_of descent_set from_index "
                    "index_of inversions parse_composition refines reverse".split(),
    "config": "max_degree set_max_degree".split(),
    "errors": "BasisTagError DegreeLimitError DegreeMismatchError DisjointnessError InvalidSubsetError "
              "QsymkError RelationUnsoundError".split(),
    "kernel": "KernelSpace OmegaSets RelationGraph RelationId check_basis_F check_section4_props check_spanning_F "
              "check_spanning_M check_symmetry_bridges connected_components ctilde_member f_family ideal_reports "
              "is_ctilde is_forest is_ideal_upto kernel_space m_family monomial_span_terms monomial_span_vectors "
              "omega_sets quotient_dimension relation_edges successors".split(),
    "linalg": "RowBasis SparseVector in_span is_independent rank reduce spans_equal".split(),
    "qsym": "QSymElement ehrenborg_psi_m element_from_json_dict element_to_json_dict f_to_m fundamental "
            "lemma22b_combination lemma22c_combination m_to_f monomial multiply_f psi rho".split(),
    "statistics": "Permutation StatisticId check_shuffle_compatible equivalence_classes eval_on_composition "
                  "eval_on_permutation parse_permutation parse_statistic perm_descent_composition "
                  "realize_permutation shuffle_distribution shuffles standardize".split(),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
