"""The complement and reverse symmetry bridges, and relation-graph export."""

from __future__ import annotations

from typing import Iterator, Sequence

from .compositions import complement_mask, compositions_of, reverse_mask
from .config import check_degree
from .kernel import RelationGraph, RelationId, kernel_space, relation_edges
from .statistics import DescentStatistic, StatisticId, _blocks


def _maps_onto(src: DescentStatistic, dst: DescentStatistic, relabel, n: int) -> bool:
    """Does the F-index relabelling carry K^src_n onto K^dst_n?  It permutes
    F coordinates, so it carries the kernel of the src-classes onto the
    kernel of the relabelled classes, and two class partitions have the
    same kernel exactly when they are equal.  Both relabellings
    (`complement_mask`, `reverse_mask`) are involutions, so the image class
    of m is the src-class of relabel(n, m), and `_blocks` orders them."""
    labels = kernel_space(src, n).labels
    return _blocks(labels[relabel(n, m)] for m in range(len(labels))) == kernel_space(dst, n).classes


def check_symmetry_bridges(n: int) -> dict:
    """Verify the complement/reverse symmetries at degree n:

    1. the complement of every arrow1/arrow2 edge is a val1 or val2
       edge, and the complement of every arrow3 edge is a val3 edge;
    2. the epk and val kernels coincide: the two have the same classes;
    3. psi carries K^Pk_n onto K^Val_n and K^pk_n onto K^val_n;
    4. rho carries K^Lpk_n onto K^Rpk_n and K^lpk_n onto K^rpk_n.
    """
    check_degree(n)

    def complements_into(src: set[RelationId], dst: set[RelationId]) -> bool:
        pairs = {(a, b) for a, b, _ in relation_edges(dst, n).edges}
        return all(
            (complement_mask(n, a), complement_mask(n, b)) in pairs
            for a, b, _ in relation_edges(src, n).edges
        )

    val12 = {RelationId.ValArrow1, RelationId.ValArrow2}
    epk, val = kernel_space(StatisticId.epk, n), kernel_space(StatisticId.val, n)
    results = {
        "complement_of_pk_edges": complements_into({RelationId.Arrow1, RelationId.Arrow2}, val12),
        "complement_of_swap_edges": complements_into({RelationId.Arrow3}, val12 | {RelationId.ValArrow3}),
        "epk_kernel_equals_val_kernel": epk.classes == val.classes,
        "psi_Pk_onto_Val": _maps_onto(StatisticId.Pk, StatisticId.Val, complement_mask, n),
        "psi_pk_onto_val": _maps_onto(StatisticId.pk, StatisticId.val, complement_mask, n),
        "rho_Lpk_onto_Rpk": _maps_onto(StatisticId.Lpk, StatisticId.Rpk, reverse_mask, n),
        "rho_lpk_onto_rpk": _maps_onto(StatisticId.lpk, StatisticId.rpk, reverse_mask, n),
    }
    return {"degree": n, "pass": all(results.values()), "results": results}


# -- graph export --------------------------------------------------------------

def _named(graphs: Sequence[RelationGraph]) -> Iterator[tuple[list[str], list[str], list[tuple[str, str, str]]]]:
    """Per graph, named by composition text: its vertices by index, its ctilde marks, its edges."""
    for graph in graphs:
        names = [str(comp) for comp in compositions_of(graph.n)]
        yield names, [names[c] for c in graph.marks], [(names[a], names[b], label) for a, b, label in graph.edges]


def graphs_to_dot(graphs: Sequence[RelationGraph]) -> str:
    """DOT export: vertices labeled with composition text, edges labeled
    1/2/3, ctilde-marked vertices drawn with doubled borders."""
    lines = ["digraph relations {"]
    for names, marks, edges in _named(graphs):
        marked = set(marks)
        lines += [f'  "{name}"{" [peripheries=2]" if name in marked else ""};' for name in names]
        lines += [f'  "{a}" -> "{b}" [label="{label}"];' for a, b, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphs_to_json_dict(graphs: Sequence[RelationGraph]) -> dict:
    named = list(_named(graphs))
    return {
        "degrees": [g.n for g in graphs],
        "vertices": [name for names, _, _ in named for name in names],
        "ctilde": [name for _, marks, _ in named for name in marks],
        "edges": [{"from": a, "to": b, "label": label} for _, _, edges in named for a, b, label in edges],
    }


def graphs_to_csv(graphs: Sequence[RelationGraph]) -> str:
    # composition text contains commas, so those fields are quoted
    rows = (f'"{a}","{b}",{label}' for _, _, edges in _named(graphs) for a, b, label in edges)
    return "\n".join(["from,to,label", *rows]) + "\n"
