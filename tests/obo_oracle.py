"""The ontology layer's grafting path as it ran before grafts cost only what
they add: ``insert_subsumptions`` builds the extended graph through the full
validating ``OntologyGraph(...)`` constructor, the fresh-id allocator sorts
every id and searches each with ``re.search``, ``serialize_obo`` writes
one line at a time through ``graph[cid]``, sorting every parent set, and
``prune_to_most_specific`` tests each class against the others in set order.
Tests compare ``ontograft.ontology`` and ``ontograft.extension`` against it:
the same classes, child sets, exceptions, first fresh id, kept superclasses
and serialized bytes.
"""

import re
from dataclasses import replace

from ontograft.ontology import (
    SMILES_KEY,
    DuplicateIdError,
    OntologyGraph,
    UnknownClassError,
    _escape,
)


def insert_subsumptions(graph, additions):
    """Each (class, superclass ids) pair added as a leaf, then the whole
    graph rebuilt and revalidated by the constructor."""
    new_classes = dict(graph._classes)
    for cls, superclasses in additions:
        if cls.id in new_classes:
            raise DuplicateIdError(cls.id)
        for sup in superclasses:
            if sup not in new_classes:
                raise UnknownClassError(sup)
        new_classes[cls.id] = replace(cls, parents=frozenset(superclasses))
    return OntologyGraph(
        new_classes,
        header_lines=graph.header_lines,
        trailing_stanzas=graph.trailing_stanzas,
    )


def prune_to_most_specific(graph, accepted):
    """Accepted classes that are no other accepted class's ancestor."""
    keep = []
    accepted_set = set(accepted)
    for cid in accepted:
        others = accepted_set - {cid}
        if not any(cid in graph.ancestors(o) for o in others):
            keep.append(cid)
    return keep


def first_fresh_number(graph):
    """The counter ``FreshIdAllocator`` starts at: one past the largest
    trailing number of any id, over the ids in sorted order."""
    highest = 0
    for cid in graph.ids():
        m = re.search(r"(\d+)$", cid)
        if m:
            highest = max(highest, int(m.group(1)))
    return highest + 1


def serialize_obo(graph, edge_comments=None):
    """OBO text, one appended line at a time, stanzas sorted by class id."""
    edge_comments = edge_comments or {}
    out = list(graph.header_lines)
    if out:
        out.append("")
    for cid in graph.ids():
        cls = graph[cid]
        out.append("[Term]")
        out.append(f"id: {cls.id}")
        if cls.name:
            out.append(f"name: {cls.name}")
        for parent in sorted(cls.parents):
            comment = edge_comments.get((cls.id, parent))
            if comment:
                out.append(f"is_a: {parent} ! {comment}")
            else:
                out.append(f"is_a: {parent}")
        if cls.smiles is not None:
            out.append(f'property_value: {SMILES_KEY} "{_escape(cls.smiles)}" xsd:string')
        if cls.obsolete:
            out.append("is_obsolete: true")
        out.extend(cls.extra_lines)
        out.append("")
    for block in graph.trailing_stanzas:
        out.extend(block)
        out.append("")
    return "\n".join(out)
