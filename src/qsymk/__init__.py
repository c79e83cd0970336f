"""qsymk: exact computations in graded quasisymmetric function spaces.

Compositions of n index the monomial and fundamental bases of the
degree-n component; descent statistics partition the compositions into
equivalence classes, and each statistic's kernel is the span of the
F-differences within classes.  This package computes those kernels with
exact rational arithmetic and certifies spanning sets, bases, monomial
characterizations, and the ideal property at desk-scale degrees.
"""

from .compositions import (
    Composition,
    DescentSet,
    complement,
    composition_of,
    compositions_of,
    descent_set,
    from_index,
    index_of,
    inversions,
    parse_composition,
    refines,
    reverse,
)
from .config import max_degree, set_max_degree
from .errors import (
    BasisTagError,
    DegreeLimitError,
    DegreeMismatchError,
    DisjointnessError,
    InvalidSubsetError,
    QsymkError,
    RelationUnsoundError,
)
from .kernel import (
    KernelSpace,
    OmegaSets,
    RelationGraph,
    RelationId,
    check_basis_F,
    check_section4_props,
    check_spanning_F,
    check_spanning_M,
    check_symmetry_bridges,
    connected_components,
    ctilde_member,
    f_family,
    ideal_reports,
    is_ctilde,
    is_forest,
    is_ideal_upto,
    kernel_space,
    m_family,
    monomial_span_terms,
    monomial_span_vectors,
    omega_sets,
    quotient_dimension,
    relation_edges,
    successors,
)
from .linalg import (
    RowBasis,
    SparseVector,
    in_span,
    is_independent,
    rank,
    reduce,
    spans_equal,
)
from .qsym import (
    QSymElement,
    ehrenborg_psi_m,
    element_from_json_dict,
    element_to_json_dict,
    f_to_m,
    fundamental,
    lemma22b_combination,
    lemma22c_combination,
    m_to_f,
    monomial,
    multiply_f,
    psi,
    rho,
)
from .statistics import (
    Permutation,
    StatisticId,
    check_shuffle_compatible,
    equivalence_classes,
    eval_on_composition,
    eval_on_permutation,
    parse_permutation,
    parse_statistic,
    perm_descent_composition,
    realize_permutation,
    shuffle_distribution,
    shuffles,
    standardize,
)

__version__ = "0.1.0"
