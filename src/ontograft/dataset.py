"""Turn an ontology graph into a multi-label dataset with reproducible splits.

Molecules are the structured leaves of the graph; a molecule's label vector
marks every selected label class among its ancestors.  Label selection builds
each class's set of structured leaves once, from its children's sets, in the
children-first order of ``OntologyGraph._peel``.  The molecules' label vectors
are the rows of one int8 matrix, in both ``build_dataset`` and ``load_tsv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain

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

    def check_fit(self, n_outputs: int) -> None:
        """One class per label output of the model, or a DatasetError."""
        if len(self.classes) != n_outputs:
            raise DatasetError(
                f"label index has {len(self.classes)} classes, model expects {n_outputs}"
            )


@dataclass(eq=False)
class LabeledMolecule:
    smiles: str
    labels: np.ndarray  # binary vector, dtype int8


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


def _structured_leaf_members(graph: OntologyGraph, position: dict[str, int]):
    """Class id -> set of positions (values of position) of its structured-leaf
    descendants, for every class with children, each built from its children's
    sets in the children-first order of ``OntologyGraph._peel``."""
    children = graph._children
    members: dict[str, set[int]] = {}
    for cid in graph._peel():
        kids = children[cid]
        members[cid] = own = {position[kid] for kid in kids if kid in position}
        own.update(*[members[kid] for kid in kids if kid in members])
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
    # the greedy loop only counts leaves, so any numbering of them will do
    position = {leaf: i for i, leaf in enumerate(graph.structured_leaves())}
    members = _structured_leaf_members(graph, position)
    candidates = [
        cid for cid in graph.ids()
        if cid in members and not graph[cid].obsolete and len(members[cid]) >= min_members
    ]
    if len(candidates) < k:
        raise DatasetError(
            f"only {len(candidates)} classes have >= {min_members} structured leaf "
            f"descendants; {k} requested"
        )
    # candidate x leaf incidence as (row, leaf) pairs; the overlap with the
    # covered leaves is kept as integer counts, updated by each pick's new leaves
    leaves = [members[cid] for cid in candidates]
    size = np.fromiter(map(len, leaves), dtype=np.int64, count=len(leaves))
    end = np.cumsum(size)
    rows = np.repeat(np.arange(len(candidates)), size)
    cols = np.fromiter(chain.from_iterable(leaves), dtype=np.int64, count=int(end[-1]))
    inter = np.zeros(len(candidates), dtype=np.int64)
    covered = np.zeros(len(position), dtype=bool)
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
        newly = np.zeros(len(position), dtype=bool)
        newly[cols[end[pick] - size[pick]:end[pick]]] = True
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
    below = [graph.descendants(cid) for cid in labels]  # or UnknownClassError
    leaves = sorted(graph.structured_leaves() & set().union(*below))
    if not leaves:
        raise DatasetError("no structured leaf matches any label class")
    position = {leaf: i for i, leaf in enumerate(leaves)}
    y = np.zeros((len(leaves), len(labels)), dtype=np.int8)
    for j, found in enumerate(below):
        y[[position[d] for d in found if d in position], j] = 1
    # each SMILES's first row keeps its place and ORs in the rows that repeat it
    first: dict[str, int] = {}
    for i, leaf in enumerate(leaves):
        row = first.setdefault(graph[leaf].smiles, i)
        if row != i:
            y[row] |= y[i]
    kept = y[list(first.values())]
    molecules = [LabeledMolecule(s, kept[n]) for n, s in enumerate(first)]
    return molecules, compute_stats(molecules, labels)


def compute_stats(molecules: list[LabeledMolecule], labels: LabelIndex) -> DatasetStats:
    if not molecules:
        return DatasetStats({cid: 0 for cid in labels}, {}, 0)
    y = np.stack([mol.labels for mol in molecules]).astype(np.int64)
    per_class = dict(zip(labels, y.sum(axis=0).tolist()))
    n_labels, first, n_molecules = np.unique(
        y.sum(axis=1), return_index=True, return_counts=True
    )
    # histogram keys in order of first appearance, as a scan over molecules
    histogram = {
        int(n_labels[i]): int(n_molecules[i]) for i in np.argsort(first, kind="stable")
    }
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


def check_ratios(ratios: tuple[float, ...]) -> None:
    """Three positive split ratios that sum to 1, or a DatasetError."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise DatasetError(f"ratios must be three positive numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise DatasetError(f"ratios must sum to 1, got {sum(ratios)}")


def split_dataset(
    data: list[LabeledMolecule],
    ratios: tuple[float, float, float],
    seed: int,
) -> DatasetSplits:
    """Shuffle and partition into train/validation/test by ratio."""
    check_ratios(ratios)
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
    )


SPLIT_FILES = {"train": "train.tsv", "validation": "validation.tsv", "test": "test.tsv"}
LABELS_FILE = "labels.txt"


def _write_split(path: str, molecules: list[LabeledMolecule], labels: LabelIndex) -> None:
    lines = ["smiles\t" + "\t".join(labels)]
    if molecules:
        y = np.stack([mol.labels for mol in molecules])
        if y.min() < 0 or y.max() > 1:
            raise DatasetError(f"{path}: labels must be 0 or 1")
        # every label row as digits and tabs in one block of fixed-width rows
        cells = np.full((len(molecules), 2 * len(labels)), ord("\t"), dtype=np.uint8)
        cells[:, ::2] = y + ord("0")
        block = cells.tobytes().decode("ascii")
        width = cells.shape[1]
        lines += [
            mol.smiles + "\t" + block[i * width:(i + 1) * width - 1]
            for i, mol in enumerate(molecules)
        ]
    atomic_write_text(path, "\n".join(lines) + "\n")


_BINARY_CELLS = frozenset(("0", "1"))


def _read_split(path: str, labels: LabelIndex) -> list[LabeledMolecule]:
    """The molecules of a split TSV; their label vectors are the rows of one
    int8 matrix, read from one block of every row's cells."""
    smiles, rows = [], []
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
            if not _BINARY_CELLS.issuperset(fields[1:]):
                raise DatasetError(f"{path}:{lineno}: labels must be 0 or 1")
            rows.append(line[len(fields[0]) + 1:])
            smiles.append(fields[0])
    # every row is one-character cells and tabs: the digits are every other byte
    block = np.frombuffer("\t".join(rows).encode("ascii"), dtype=np.uint8)[::2]
    y = (block - ord("0")).astype(np.int8).reshape(len(rows), len(labels))
    return [LabeledMolecule(s, y[i]) for i, s in enumerate(smiles)]


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
    """Inverse of save_tsv."""
    labels = load_labels(os.path.join(in_dir, LABELS_FILE))
    parts = {
        name: _read_split(os.path.join(in_dir, filename), labels)
        for name, filename in SPLIT_FILES.items()
    }
    return DatasetSplits(parts["train"], parts["validation"], parts["test"]), labels


def load_split_tsv(path: str) -> tuple[list[LabeledMolecule], LabelIndex]:
    """Read a single split TSV, taking the label index from its header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
    if not header or header[0] != "smiles" or len(header) < 2:
        raise DatasetError(f"{path}: malformed header")
    labels = LabelIndex(tuple(header[1:]))
    return _read_split(path, labels), labels
