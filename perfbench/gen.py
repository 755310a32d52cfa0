"""Seeded benchmark inputs: a paper-shaped ontology, SMILES-like corpora,
query molecules and a score matrix, all derived from the workload seed.

Sizes and the class hierarchy are fixed; the workload seed picks the
strings (fragment library, motifs, leaf and query molecules) and the score
matrix.  So every seed asks the program for the same amount of work, which
keeps label selection, whose cost depends on how the candidate classes
overlap, from varying with the seed:

* the ontology has ~33k classes: a structure branch of 24 + 240 + 2,400
  grouping classes over 30,000 structured leaves, a 500-class role branch
  without structures and a few obsolete terms;
* each grouping class on the lowest level has a fixed number of leaf
  children, so the label-candidate pool has the same size for every seed;
* strings are built from a Zipf-weighted library of SMILES-like fragments,
  which gives byte-pair encoding enough frequent pairs to reach a vocabulary
  of 1,395;
* molecules whose token count matters (training corpora, queries) are cut
  to an exact number of tokens, so padded batch shapes repeat across seeds.
"""

from __future__ import annotations

import numpy as np
from ontograft.tokenizer import UNK_ID

SMILES_KEY = "http://purl.obolibrary.org/obo/chebi/smiles"

STRUCTURE_SEED = 20210919  # shapes that are the same for every workload seed
# (top, mid, low grouping classes, roles, structured leaves, labels)
PAPER_SIZES = (24, 240, 2400, 500, 30_000, 500)
SMOKE_SIZES = (4, 16, 160, 40, 2_000, 50)
# Leaf children per lowest-level class, cycled; mean 18.75 so 2,400 classes
# hold exactly the 45,000 parent slots of 30,000 leaves with 1-3 parents
# each (1.5 on average).  Classes with >= 20 children are label candidates.
LOW_CHILD_COUNTS = (8, 12, 14, 16, 20, 22, 24, 34)

_ATOMS = (
    ("C", 30.0), ("c", 15.0), ("N", 6.0), ("n", 4.0), ("O", 10.0), ("o", 1.0),
    ("S", 2.0), ("s", 1.0), ("P", 0.5), ("F", 1.0), ("Cl", 1.0), ("Br", 0.5),
    ("I", 0.2), ("[C@@H]", 1.0), ("[C@H]", 1.0), ("[NH+]", 0.3), ("[O-]", 0.5),
    ("[nH]", 0.8), ("[Na+]", 0.1), ("B", 0.1), ("[Si]", 0.1), ("[Se]", 0.1),
)
_BONDS = (("", 80.0), ("=", 12.0), ("#", 2.0), ("/", 3.0), ("\\", 3.0))


def _choice_table(pairs):
    names = [p[0] for p in pairs]
    weights = np.array([p[1] for p in pairs], dtype=np.float64)
    return names, weights / weights.sum()


def _ids(prefix: str, start: int, count: int) -> list[str]:
    return [f"{prefix}:{n:07d}" for n in range(start, start + count)]


class FragmentLibrary:
    """Random SMILES-like fragments with Zipf-like usage frequencies."""

    def __init__(self, rng: np.random.Generator, size: int = 4000):
        atoms, atom_p = _choice_table(_ATOMS)
        bonds, bond_p = _choice_table(_BONDS)
        fragments: list[str] = []
        seen: set[str] = set()
        while len(fragments) < size:
            n = int(rng.integers(2, 7))
            picked = rng.choice(len(atoms), size=n, p=atom_p)
            bond_idx = rng.choice(len(bonds), size=n, p=bond_p)
            parts = [bonds[b] + atoms[a] for a, b in zip(picked, bond_idx)]
            parts[0] = atoms[picked[0]]
            if rng.random() < 0.2:
                digit = str(int(rng.integers(1, 5)))
                parts[0] += digit
                parts[-1] += digit
            frag = "".join(parts)
            if rng.random() < 0.3:
                frag = frag[:1] + "(" + frag[1:] + ")"
            if frag not in seen:
                seen.add(frag)
                fragments.append(frag)
        self.fragments = fragments
        ranks = np.arange(1, size + 1, dtype=np.float64)
        self.p = 1.0 / ranks**1.1
        self.p /= self.p.sum()

    def draw(self, rng: np.random.Generator, n: int) -> list[str]:
        return [self.fragments[i] for i in rng.choice(len(self.fragments), size=n, p=self.p)]


class PaperOntology:
    """The generated paper-shaped ontology and the facts the checks need."""

    def __init__(self, seed: int, sizes: tuple[int, ...] = PAPER_SIZES):
        n_top, n_mid, n_low, n_roles, n_leaves, n_labels = sizes
        shape_rng = np.random.default_rng(STRUCTURE_SEED)
        rng = np.random.default_rng([seed, 1])
        self.library = FragmentLibrary(rng)
        self.root = "PB:0000001"
        self.top = _ids("PB", 10, n_top)
        self.mid = _ids("PB", 100, n_mid)
        self.low = _ids("PB", 1000, n_low)
        self.roles = _ids("PB", 5000, n_roles)
        self.leaves = _ids("PB", 100_000, n_leaves)
        self.parents: dict[str, list[str]] = {}
        self.motif: dict[str, str] = {}
        for cid in self.top:
            self.parents[cid] = [self.root]
        for i, cid in enumerate(self.mid):
            extra = int(shape_rng.integers(n_top))
            self.parents[cid] = sorted({self.top[i % n_top], self.top[extra]})
        for i, cid in enumerate(self.low):
            extra = int(shape_rng.integers(n_mid))
            self.parents[cid] = sorted({self.mid[i % n_mid], self.mid[extra]})
        for cid in self.top + self.mid + self.low:
            self.motif[cid] = "".join(self.library.draw(rng, 2))
        self._assign_leaves(shape_rng)
        self._grow_roles(shape_rng)
        self.leaf_smiles = self._leaf_strings(rng)
        candidates = self.top + self.mid + [
            cid for cid, n in zip(self.low, self._low_counts) if n >= 20
        ]
        # The curator's label classes: every upper class plus the first
        # lowest-level candidates, so labels nest and pruning has work to do.
        self.labels = tuple(sorted(candidates[:n_labels]))

    def _assign_leaves(self, rng: np.random.Generator) -> None:
        n_low, n_leaves = len(self.low), len(self.leaves)
        counts = [LOW_CHILD_COUNTS[i % len(LOW_CHILD_COUNTS)] for i in range(n_low)]
        self._low_counts = counts
        slots = np.repeat(np.arange(n_low), counts)
        rng.shuffle(slots)
        n_parents = [1 + (i % 10 >= 6) + (i % 10 >= 9) for i in range(n_leaves)]
        if sum(n_parents) != len(slots):
            raise ValueError("leaf parent slots do not match the class counts")
        bounds = np.cumsum([0] + n_parents)
        groups = [slots[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]
        # A class repeated within one leaf's parents trades places with a
        # random slot of another leaf, keeping every class's child count.
        for group in groups:
            while len(set(group)) < len(group):
                dup = next(i for i in range(1, len(group)) if group[i] in group[:i])
                other = groups[int(rng.integers(len(groups)))]
                j = int(rng.integers(len(other)))
                if other is group or group[dup] in other or other[j] in group:
                    continue
                group[dup], other[j] = other[j], group[dup]
        for leaf, group in zip(self.leaves, groups):
            self.parents[leaf] = sorted(self.low[g] for g in group)

    def _grow_roles(self, rng: np.random.Generator) -> None:
        role_root = self.roles[0]
        self.parents[role_root] = [self.root]
        for i, cid in enumerate(self.roles[1:], start=1):
            self.parents[cid] = [self.roles[int(rng.integers(i))]]

    def _leaf_strings(self, rng: np.random.Generator) -> dict[str, str]:
        seen: set[str] = set()
        out = {}
        for leaf in self.leaves:
            smiles = self.molecule(rng, self.parents[leaf], int(rng.integers(1, 9)))
            while smiles in seen:
                smiles += "C"
            seen.add(smiles)
            out[leaf] = smiles
        return out

    def molecule(self, rng: np.random.Generator, classes: list[str], n_filler: int) -> str:
        """Motifs of the given classes and of one grandparent each, in a
        random order among Zipf-drawn filler fragments."""
        pieces = []
        for cid in classes:
            pieces.append(self.motif[cid])
            ups = self.parents.get(cid, [])
            if ups and ups[0] in self.motif:
                pieces.append(self.motif[ups[0]])
        pieces += self.library.draw(rng, n_filler)
        order = rng.permutation(len(pieces))
        return "".join(pieces[i] for i in order)

    def obo_text(self) -> str:
        out = ["format-version: 1.2", "ontology: paperbench", ""]

        def term(cid, name, parents, smiles=None, obsolete=False):
            out.append("[Term]")
            out.append(f"id: {cid}")
            out.append(f"name: {name}")
            for p in parents:
                out.append(f"is_a: {p}")
            if smiles is not None:
                out.append(f'property_value: {SMILES_KEY} "{smiles}" xsd:string')
            if obsolete:
                out.append("is_obsolete: true")
            out.append("")

        term(self.root, "chemical entity", [])
        for level, ids in (("top", self.top), ("mid", self.mid), ("low", self.low)):
            for n, cid in enumerate(ids):
                term(cid, f"{level} class {n + 1}", self.parents[cid])
        for n, cid in enumerate(self.roles):
            term(cid, f"role {n + 1}", self.parents[cid])
        for n, cid in enumerate(self.leaves):
            term(cid, f"molecule {n + 1}", self.parents[cid], self.leaf_smiles[cid])
        term("PB:0009998", "obsolete compound", [self.root], "CCCC", obsolete=True)
        term("PB:0009999", "obsolete role", [self.roles[0]], obsolete=True)
        out.append("[Typedef]")
        out.append("id: has_role")
        out.append("name: has role")
        out.append("")
        return "\n".join(out)

    def random_molecule(self, rng: np.random.Generator, n_filler: int) -> str:
        """A molecule under one to three random lowest-level classes."""
        picks = rng.integers(len(self.low), size=int(rng.integers(1, 4)))
        return self.molecule(rng, sorted({self.low[int(i)] for i in picks}), n_filler)


def fit_length(tokenizer, make, target: int, known: set[str]) -> str:
    """A new string, not in ``known``, whose encoding (BOS and EOS included)
    is ``target`` tokens long: a long ``make(n_filler)`` string cut at a
    token boundary, the cut nudged until re-encoding gives the target."""
    n_filler = max(4, target // 2)
    while True:
        seq = tokenizer.encode(make(n_filler), truncate=True)
        if UNK_ID in seq.ids:
            continue
        if len(seq) >= target + 8:
            break
        n_filler *= 2
    pieces = tokenizer.token_strings(seq)[1:-1]
    cut = target - 2
    best = None
    for _ in range(8):
        candidate = "".join(pieces[:cut])
        length = len(tokenizer.encode(candidate))
        if candidate not in known and (best is None or abs(length - target) < best[0]):
            best = (abs(length - target), candidate)
        if length == target and candidate not in known:
            break
        cut = max(1, cut + (target - length if length != target else 1))
    known.add(best[1])
    return best[1]


def score_matrix(seed: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Test-set-shaped truth and scores: label prevalence falls off by column,
    scores are noisy sigmoids of the truth, rounded so that ties occur.
    Every column has the same number of positives (at least two) for every
    seed, so that no seed leaves a column's AUC undefined and every seed
    asks for the same work; the seed picks which rows."""
    rng = np.random.default_rng([seed, 7])
    prevalence = 0.002 + 0.2 / (1.0 + np.arange(cols) / 10.0)
    y_true = np.zeros((rows, cols), dtype=np.int8)
    for j, n_pos in enumerate(np.maximum(2, np.round(prevalence * rows)).astype(int)):
        y_true[rng.choice(rows, size=n_pos, replace=False), j] = 1
    logits = rng.normal(-2.5, 1.2, size=(rows, cols)) + 4.0 * y_true
    y_score = np.round(1.0 / (1.0 + np.exp(-logits)), 4)
    return y_true, y_score
