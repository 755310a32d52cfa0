"""The dataset layer's label selection and dataset construction as they ran
before the children-first pass.  ``_structured_leaf_members`` makes a
depth-first walk over every class through ``graph.children`` and merges each
class's member arrays with ``np.unique``; ``select_label_classes`` sorts the
structured leaves to number them and concatenates the candidates' arrays;
``build_dataset`` labels every structured leaf and merges the rows that share
a SMILES one vector at a time.  Tests compare ``ontograft.dataset`` against
it: the same member counts, selected labels, molecules, label bytes and
stats, or the same error.
"""

from __future__ import annotations

import numpy as np

from ontograft.dataset import (
    DatasetError,
    DatasetStats,
    LabelIndex,
    LabeledMolecule,
    compute_stats,
)
from ontograft.ontology import OntologyGraph, UnknownClassError


def _structured_leaf_members(graph: OntologyGraph, position: dict[str, int]):
    """Class id -> sorted indices (values of position) of its structured-leaf
    descendants, for every class, each built from its children's."""
    empty = np.empty(0, dtype=np.int64)
    members: dict[str, np.ndarray] = {}
    for root in graph.ids():
        stack = [root]
        while stack:
            cid = stack[-1]
            if cid in members:
                stack.pop()
                continue
            children = graph.children(cid)
            pending = [child for child in children if child not in members]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if not children:
                members[cid] = empty
                continue
            own = [position[child] for child in children if child in position]
            parts = [members[child] for child in children]
            members[cid] = np.unique(np.concatenate(parts + [np.array(own, dtype=np.int64)]))
    return members


def select_label_classes(
    graph: OntologyGraph, k: int, min_members: int, seed: int
) -> LabelIndex:
    """Pick k non-leaf classes with enough structured-leaf descendants.

    Greedy: the seed picks the first class uniformly from the candidate pool;
    each following pick minimizes the Jaccard overlap between the candidate's
    structured-leaf descendants and the union covered so far, ties broken by
    class id.
    """
    if len(graph) == 0:
        raise DatasetError("graph is empty")
    if k < 1:
        raise DatasetError("k must be >= 1")
    structured = sorted(graph.structured_leaves())
    members = _structured_leaf_members(
        graph, {leaf: i for i, leaf in enumerate(structured)}
    )
    candidates = [
        cid for cid in graph.ids()
        if not graph[cid].obsolete and not graph.is_leaf(cid)
        and members[cid].size >= min_members
    ]
    if len(candidates) < k:
        raise DatasetError(
            f"only {len(candidates)} classes have >= {min_members} structured leaf "
            f"descendants; {k} requested"
        )
    # candidate x leaf incidence as (row, leaf) pairs; the overlap with the
    # covered leaves is kept as integer counts, updated by each pick's new leaves
    leaves = [members[cid] for cid in candidates]
    size = np.array([m.size for m in leaves], dtype=np.int64)
    rows = np.repeat(np.arange(len(candidates)), size)
    cols = np.concatenate(leaves)
    inter = np.zeros(len(candidates), dtype=np.int64)
    covered = np.zeros(len(structured), dtype=bool)
    n_covered = 0
    taken = np.zeros(len(candidates), dtype=bool)
    rng = np.random.default_rng(seed)
    pick = int(rng.integers(len(candidates)))
    selected = []
    while True:
        selected.append(candidates[pick])
        taken[pick] = True
        if len(selected) == k:
            return LabelIndex(tuple(selected))
        newly = np.zeros(len(structured), dtype=bool)
        newly[leaves[pick]] = True
        newly &= ~covered
        covered |= newly
        n_covered += int(newly.sum())
        inter += np.bincount(rows[newly[cols]], minlength=len(candidates))
        union = size + n_covered - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            overlap = np.where(union > 0, inter / union, 0.0)
        overlap[taken] = np.inf
        # first minimum in id order: the strict-< tie rule of a sorted scan
        pick = int(np.argmin(overlap))


def build_dataset(
    graph: OntologyGraph, labels: LabelIndex
) -> tuple[list[LabeledMolecule], DatasetStats]:
    """One molecule per structured leaf with at least one label-class ancestor.

    Column j is set iff ``labels.classes[j]`` is an ancestor of the leaf.
    Leaves sharing a SMILES string are merged (label union) so the dataset is
    unique on SMILES.
    """
    for cid in labels:
        if cid not in graph:
            raise UnknownClassError(cid)
    structured = sorted(graph.structured_leaves())
    position = {leaf: i for i, leaf in enumerate(structured)}
    y = np.zeros((len(structured), len(labels)), dtype=np.int8)
    for j, cid in enumerate(labels):
        y[[position[d] for d in graph.descendants(cid) if d in position], j] = 1
    by_smiles: dict[str, np.ndarray] = {}
    for i in np.flatnonzero(y.any(axis=1)):
        smiles = graph[structured[i]].smiles
        if smiles in by_smiles:
            by_smiles[smiles] |= y[i]
        else:
            by_smiles[smiles] = y[i].copy()
    if not by_smiles:
        raise DatasetError("no structured leaf matches any label class")
    molecules = [LabeledMolecule(s, vec) for s, vec in by_smiles.items()]
    return molecules, compute_stats(molecules, labels)
