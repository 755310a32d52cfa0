"""Turn an ontology graph into a multi-label dataset with reproducible splits.

Molecules are the structured leaves of the graph; a molecule's label vector
marks every selected label class among its ancestors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._io import atomic_write_text
from .ontology import OntologyGraph, UnknownClassError


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class LabelIndex:
    """Fixed ordering of label class ids; column j of every label vector
    means membership in ``classes[j]``."""

    classes: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DatasetError("duplicate class id in label index")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.classes)})

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __contains__(self, class_id: str) -> bool:
        return class_id in self._index

    def column(self, class_id: str) -> int:
        try:
            return self._index[class_id]
        except KeyError:
            raise UnknownClassError(class_id) from None


@dataclass(eq=False)
class LabeledMolecule:
    smiles: str
    labels: np.ndarray  # binary vector, dtype int8

    def same_as(self, other: "LabeledMolecule") -> bool:
        return self.smiles == other.smiles and np.array_equal(self.labels, other.labels)


@dataclass
class DatasetStats:
    per_class_counts: dict[str, int]
    labels_per_molecule: dict[int, int]  # histogram: #labels -> #molecules
    n_molecules: int


@dataclass
class DatasetSplits:
    train: list[LabeledMolecule]
    validation: list[LabeledMolecule]
    test: list[LabeledMolecule]
    seed: int = 0

    def all_molecules(self) -> list[LabeledMolecule]:
        return self.train + self.validation + self.test


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
    structured = graph.structured_leaves()
    desc: dict[str, frozenset[str]] = {}
    for cid in graph.ids():
        cls = graph[cid]
        if cls.obsolete or graph.is_leaf(cid):
            continue
        members = frozenset(graph.descendants(cid) & structured)
        if len(members) >= min_members:
            desc[cid] = members
    if len(desc) < k:
        raise DatasetError(
            f"only {len(desc)} classes have >= {min_members} structured leaf "
            f"descendants; {k} requested"
        )
    candidates = sorted(desc)
    rng = np.random.default_rng(seed)
    selected = [candidates[int(rng.integers(len(candidates)))]]
    covered = set(desc[selected[0]])
    remaining = [c for c in candidates if c != selected[0]]
    while len(selected) < k:
        best = None
        best_overlap = None
        for cand in remaining:
            members = desc[cand]
            union = len(members | covered)
            overlap = len(members & covered) / union if union else 0.0
            if best_overlap is None or overlap < best_overlap:
                best, best_overlap = cand, overlap
        selected.append(best)
        covered |= desc[best]
        remaining.remove(best)
    return LabelIndex(tuple(selected))


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
    by_smiles: dict[str, np.ndarray] = {}
    order: list[str] = []
    for leaf in sorted(graph.structured_leaves()):
        anc = graph.ancestors(leaf)
        vec = np.zeros(len(labels), dtype=np.int8)
        for j, cid in enumerate(labels):
            if cid in anc:
                vec[j] = 1
        if not vec.any():
            continue
        smiles = graph[leaf].smiles
        if smiles in by_smiles:
            by_smiles[smiles] |= vec
        else:
            by_smiles[smiles] = vec
            order.append(smiles)
    if not order:
        raise DatasetError("no structured leaf matches any label class")
    molecules = [LabeledMolecule(s, by_smiles[s]) for s in order]
    return molecules, compute_stats(molecules, labels)


def compute_stats(molecules: list[LabeledMolecule], labels: LabelIndex) -> DatasetStats:
    per_class = {cid: 0 for cid in labels}
    histogram: dict[int, int] = {}
    for mol in molecules:
        n = int(mol.labels.sum())
        histogram[n] = histogram.get(n, 0) + 1
        for j, cid in enumerate(labels):
            per_class[cid] += int(mol.labels[j])
    return DatasetStats(per_class, histogram, len(molecules))


def largest_remainder_sizes(n: int, ratios: tuple[float, ...]) -> tuple[int, ...]:
    """Apportion n into parts proportional to ratios, largest remainder first;
    remainder ties go to the earlier part."""
    quotas = [n * r for r in ratios]
    sizes = [int(np.floor(q)) for q in quotas]
    shortfall = n - sum(sizes)
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i)
    )
    for i in remainders[:shortfall]:
        sizes[i] += 1
    return tuple(sizes)


def split_dataset(
    data: list[LabeledMolecule],
    ratios: tuple[float, float, float],
    seed: int,
) -> DatasetSplits:
    """Shuffle and partition into train/validation/test by ratio."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DatasetError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DatasetError(f"ratios must sum to 1, got {sum(ratios)}")
    if len(data) < 3:
        raise DatasetError("dataset must contain at least 3 molecules")
    n_train, n_val, n_test = largest_remainder_sizes(len(data), ratios)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(data))
    shuffled = [data[i] for i in perm]
    return DatasetSplits(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
        seed=seed,
    )


SPLIT_FILES = {"train": "train.tsv", "validation": "validation.tsv", "test": "test.tsv"}
LABELS_FILE = "labels.txt"


def _write_split(path: str, molecules: list[LabeledMolecule], labels: LabelIndex) -> None:
    lines = ["smiles\t" + "\t".join(labels)]
    for mol in molecules:
        lines.append(mol.smiles + "\t" + "\t".join(str(int(v)) for v in mol.labels))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_split(path: str, labels: LabelIndex) -> list[LabeledMolecule]:
    molecules = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split("\t")
        if cols[0] != "smiles" or tuple(cols[1:]) != labels.classes:
            raise DatasetError(f"{path}: header does not match the label index")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(labels) + 1:
                raise DatasetError(
                    f"{path}:{lineno}: expected {len(labels) + 1} columns, "
                    f"got {len(fields)}"
                )
            try:
                vec = np.array([int(v) for v in fields[1:]], dtype=np.int8)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer label value") from None
            if not np.isin(vec, (0, 1)).all():
                raise DatasetError(f"{path}:{lineno}: labels must be 0 or 1")
            molecules.append(LabeledMolecule(fields[0], vec))
    return molecules


def save_tsv(splits: DatasetSplits, labels: LabelIndex, out_dir: str) -> None:
    """Write train/validation/test TSVs plus labels.txt under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for name, filename in SPLIT_FILES.items():
        _write_split(os.path.join(out_dir, filename), getattr(splits, name), labels)
    atomic_write_text(
        os.path.join(out_dir, LABELS_FILE), "".join(cid + "\n" for cid in labels)
    )


def load_labels(path: str) -> LabelIndex:
    with open(path, "r", encoding="utf-8") as fh:
        classes = tuple(line.strip() for line in fh if line.strip())
    if not classes:
        raise DatasetError(f"{path}: empty label index")
    return LabelIndex(classes)


def load_tsv(in_dir: str) -> tuple[DatasetSplits, LabelIndex]:
    """Inverse of save_tsv.  The stored files do not carry the split seed."""
    labels = load_labels(os.path.join(in_dir, LABELS_FILE))
    parts = {
        name: _read_split(os.path.join(in_dir, filename), labels)
        for name, filename in SPLIT_FILES.items()
    }
    return DatasetSplits(parts["train"], parts["validation"], parts["test"], seed=0), labels


def load_split_tsv(path: str) -> tuple[list[LabeledMolecule], LabelIndex]:
    """Read a single split TSV, taking the label index from its header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
    if not header or header[0] != "smiles" or len(header) < 2:
        raise DatasetError(f"{path}: malformed header")
    labels = LabelIndex(tuple(header[1:]))
    return _read_split(path, labels), labels
