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
    "bridges": "check_symmetry_bridges".split(),
    "compositions": "Composition DescentSet complement composition_of compositions_of descent_set from_index "
                    "index_of inversions parse_composition refines reverse".split(),
    "config": "max_degree set_max_degree".split(),
    "errors": "BasisTagError DegreeLimitError DegreeMismatchError DisjointnessError InvalidSubsetError "
              "QsymkError RelationUnsoundError".split(),
    "ideal": "ideal_reports is_ideal_upto".split(),
    "kernel": "KernelSpace RelationGraph RelationId check_basis_F check_spanning_F connected_components "
              "ctilde_member is_ctilde is_forest kernel_space quotient_dimension relation_edges successors".split(),
    "linalg": "RowBasis SparseVector in_span is_independent rank reduce spans_equal".split(),
    "monomial_span": "OmegaSets check_section4_props check_spanning_M f_family m_family monomial_span_terms "
                     "monomial_span_vectors omega_sets".split(),
    "qsym": "QSymElement ehrenborg_psi_m element_from_json_dict element_to_json_dict f_to_m fundamental "
            "lemma22b_combination lemma22c_combination m_to_f monomial multiply_f psi rho".split(),
    "statistics": "StatisticId check_shuffle_compatible equivalence_classes eval_on_composition "
                  "parse_statistic".split(),
    "words": "Permutation eval_on_permutation parse_permutation perm_descent_composition realize_permutation "
             "shuffle_distribution shuffles standardize".split(),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def _forward(namespace: dict, exports: dict[str, list[str]]):
    """A PEP 562 `__getattr__` for the module of globals `namespace`: a submodule
    of `exports` is imported on first use, and it or one of the names listed
    under it kept in `namespace`, so a later lookup is a plain attribute."""
    homes = {name: module for module, names in exports.items() for name in (module, *names)}

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{homes[name]}")
        value = namespace[name] = module if name in exports else getattr(module, name)
        return value

    return __getattr__


__getattr__ = _forward(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
