"""Score and classify unseen SMILES against the label classes, and graft the
accepted predictions into the ontology as new leaf classes with is_a edges.

``score_molecules`` is the scoring step of ``evaluate``, ``classify`` and
``extend``.  Molecules where nothing clears the threshold never produce
edges; they are reported with their top-scoring suggestions instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelIndex
from .metrics import binarize
from .model import ModelConfig, ParameterStore, predict_probabilities
from .ontology import OntologyClass, OntologyGraph, UnknownClassError
from .tokenizer import TokenSequence, Tokenizer


class ExtensionError(Exception):
    pass


@dataclass
class ClassificationResult:
    smiles: str
    probabilities: np.ndarray  # aligned with the label index
    accepted: list[str]  # label class ids that metrics.binarize accepts
    below_threshold: bool
    top_k: list[tuple[str, float]]  # fallback suggestions, highest first
    truncated: bool = False


@dataclass
class ExtensionProposal:
    new_id: str
    name: str
    smiles: str
    superclasses: list[tuple[str, float]]  # (class id, confidence)


@dataclass
class ChangeReport:
    added: list[dict] = field(default_factory=list)
    below_threshold: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"added": self.added, "below_threshold": self.below_threshold},
            indent=2,
            sort_keys=True,
        ) + "\n"


def score_molecules(
    store: ParameterStore,
    config: ModelConfig,
    tokenizer: Tokenizer,
    labels: LabelIndex,
    smiles_list: list[str],
    batch_size: int = 32,
) -> tuple[list[TokenSequence], np.ndarray]:
    """Each molecule's encoding, over-length ones truncated with a flag
    (inference degrades gracefully), and its row of label probabilities."""
    labels.check_fit(config.n_labels)
    seqs = [tokenizer.encode(s, truncate=True) for s in smiles_list]
    return seqs, predict_probabilities(store, config, seqs, batch_size)


def classify_batch(
    store: ParameterStore,
    config: ModelConfig,
    tokenizer: Tokenizer,
    labels: LabelIndex,
    smiles_list: list[str],
    threshold: float = 0.5,
    top_k: int = 3,
    batch_size: int = 32,
) -> list[ClassificationResult]:
    """Score (``score_molecules``), then threshold the probabilities.

    If nothing is accepted, the top_k highest-probability labels are
    reported as suggestions only.
    """
    if not 0.0 < threshold < 1.0:
        raise ExtensionError(f"threshold must be in (0, 1), got {threshold}")
    seqs, probs = score_molecules(store, config, tokenizer, labels, smiles_list, batch_size)
    accept = binarize(probs, threshold)
    ranked = np.argsort(-probs, axis=1, kind="stable")[:, :top_k]  # ties: by label index
    results = []
    for i, smiles in enumerate(smiles_list):
        p = probs[i]
        accepted = [labels.classes[j] for j in np.flatnonzero(accept[i])]
        suggestions = [(labels.classes[j], float(p[j])) for j in ranked[i]]
        results.append(
            ClassificationResult(
                smiles=smiles,
                probabilities=p,
                accepted=accepted,
                below_threshold=not accepted,
                top_k=suggestions,
                truncated=seqs[i].truncated,
            )
        )
    return results


def prune_to_most_specific(graph: OntologyGraph, accepted: list[str]) -> list[str]:
    """Drop any accepted class that is an ancestor of another accepted class.

    Each distinct class's ancestors are computed once, in ``accepted`` order,
    so the work repeats under any string hash seed.
    """
    ancestors = {cid: graph.ancestors(cid) for cid in dict.fromkeys(accepted)}
    return [
        cid
        for cid in accepted
        if not any(cid in above for other, above in ancestors.items() if other != cid)
    ]


# An id's trailing decimal digits: any Unicode Nd digit counts, and ``$``
# also matches before a final newline.
_TRAILING_NUMBER = re.compile(r"(\d+)$")
# The same number, read per id from the ids joined and ended by NUL.
_ENDING_NUMBERS = re.compile(r"(\d+)\n?\0")


class FreshIdAllocator:
    """Collision-free ids: configurable prefix plus a zero-padded counter
    starting past the largest numeric id already in the graph."""

    def __init__(self, graph: OntologyGraph, prefix: str = "ONTOGRAFT:", width: int = 6):
        self.prefix = prefix
        self.width = width
        text = "\0".join(graph) + "\0"
        if text.count("\0") == len(graph):  # one scan, unless an id holds a NUL
            found = _ENDING_NUMBERS.findall(text)
        else:
            found = [m.group(1) for m in map(_TRAILING_NUMBER.search, graph) if m]
        self._next = max(map(int, found), default=0) + 1

    def allocate(self) -> str:
        new_id = f"{self.prefix}{self._next:0{self.width}d}"
        self._next += 1
        return new_id


def propose_extensions(
    graph: OntologyGraph,
    labels: LabelIndex,
    results: list[ClassificationResult],
    id_prefix: str = "ONTOGRAFT:",
    id_width: int = 6,
) -> tuple[list[ExtensionProposal], list[ClassificationResult]]:
    """One proposal per confidently classified molecule.

    Redundant superclasses are pruned to the most specific accepted classes.
    New class names default to the SMILES string itself (curators rename).
    Returns (proposals, skipped below-threshold results).
    """
    for cid in labels:
        if cid not in graph:
            raise UnknownClassError(cid)
    allocator = FreshIdAllocator(graph, prefix=id_prefix, width=id_width)
    proposals = []
    skipped = []
    for result in results:
        if result.below_threshold:
            skipped.append(result)
            continue
        specific = prune_to_most_specific(graph, result.accepted)
        confidences = {
            cid: float(result.probabilities[labels.column(cid)]) for cid in specific
        }
        proposals.append(
            ExtensionProposal(
                new_id=allocator.allocate(),
                name=result.smiles,
                smiles=result.smiles,
                superclasses=[(cid, confidences[cid]) for cid in sorted(specific)],
            )
        )
    return proposals, skipped


def extend(
    graph: OntologyGraph,
    proposals: list[ExtensionProposal],
    skipped: list[ClassificationResult] | None = None,
) -> tuple[OntologyGraph, ChangeReport]:
    """Apply proposals, returning the extended graph and a change report.

    The input graph is never modified; re-running the same proposals against
    the extended graph fails on duplicate ids by design.
    """
    additions = []
    for prop in proposals:
        cls = OntologyClass(id=prop.new_id, name=prop.name, smiles=prop.smiles)
        additions.append((cls, [cid for cid, _ in prop.superclasses]))
    extended = graph.insert_subsumptions(additions)
    report = ChangeReport()
    for prop in proposals:
        report.added.append(
            {
                "new_id": prop.new_id,
                "name": prop.name,
                "smiles": prop.smiles,
                "edges": [
                    {"superclass": cid, "confidence": conf}
                    for cid, conf in prop.superclasses
                ],
            }
        )
    for result in skipped or []:
        report.below_threshold.append(
            {
                "smiles": result.smiles,
                "suggestions": [
                    {"label": cid, "probability": prob} for cid, prob in result.top_k
                ],
            }
        )
    return extended, report


def edge_comment_map(proposals: list[ExtensionProposal]) -> dict[tuple[str, str], str]:
    """Confidence annotations for the OBO serializer."""
    return {
        (prop.new_id, cid): f"confidence={conf:.4f}"
        for prop in proposals
        for cid, conf in prop.superclasses
    }
