"""The ontology layer as it ran before grafts cost only what they add and
before the one-pass parser.  ``parse_obo`` walks the lines with a
``while`` index, one inner loop per stanza, and builds the graph through
``build_graph``: the parent check, the child sets and a depth-first cycle
search over every class (``find_cycle``).  ``insert_subsumptions`` builds
the extended graph through ``build_graph`` too, the fresh-id allocator
sorts every id and searches each with ``re.search``, ``serialize_obo``
writes one line at a time through ``graph[cid]``, sorting every parent
set, and ``prune_to_most_specific`` tests each class against the others in
set order.  Tests compare ``ontograft.ontology`` and ``ontograft.extension``
against it: the same classes, child sets, exceptions, first fresh id, kept
superclasses and serialized bytes.
"""

import re
from dataclasses import replace

from ontograft.ontology import (
    SMILES_KEY,
    CycleError,
    DuplicateIdError,
    OboSyntaxError,
    OntologyClass,
    OntologyError,
    OntologyGraph,
    UnknownClassError,
    _escape,
    _unescape,
)

_PROPERTY_VALUE_RE = re.compile(
    r'^property_value:\s*(?P<key>\S+)\s+"(?P<value>(?:[^"\\]|\\.)*)"\s+xsd:string\s*$'
)


def _strip_comment(value):
    pos = value.find("!")
    return value if pos < 0 else value[:pos].rstrip()


def find_cycle(classes):
    """Depth-first search over parent edges; returns one cycle if any."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in classes}
    for start in classes:
        if color[start] != WHITE:
            continue
        path = []
        stack = [(start, False)]
        while stack:
            node, done = stack.pop()
            if done:
                color[node] = BLACK
                path.pop()
                continue
            if color[node] == BLACK:
                continue
            if color[node] == GRAY:
                return path[path.index(node):]
            color[node] = GRAY
            path.append(node)
            stack.append((node, True))
            for parent in sorted(classes[node].parents):
                if color[parent] == GRAY:
                    return path[path.index(parent):]
                if color[parent] == WHITE:
                    stack.append((parent, False))
    return None


def build_graph(classes, header_lines=(), trailing_stanzas=()):
    """The validating constructor: key and parent checks, child sets, then
    the depth-first cycle search over every class."""
    for cid, cls in classes.items():
        if cid != cls.id:
            raise OntologyError(f"class keyed as {cid} but has id {cls.id}")
        for parent in cls.parents:
            if parent not in classes:
                raise UnknownClassError(parent)
    children = {cid: set() for cid in classes}
    for cls in classes.values():
        for parent in cls.parents:
            children[parent].add(cls.id)
    cycle = find_cycle(classes)
    if cycle is not None:
        raise CycleError(cycle)
    graph = object.__new__(OntologyGraph)
    graph._classes, graph._children = dict(classes), children
    graph.header_lines, graph.trailing_stanzas = tuple(header_lines), tuple(trailing_stanzas)
    return graph


def parse_obo(text):
    """Classes, header lines and opaque stanzas, line by line."""
    header_lines: list[str] = []
    classes: dict[str, OntologyClass] = {}
    trailing: list[tuple[str, ...]] = []
    is_a_lines: list[tuple[str, str, int]] = []  # (child, parent, line number)

    lines = text.split("\n")
    i = 0
    n = len(lines)
    in_header = True
    while i < n:
        line = lines[i].rstrip("\r")
        if not line.strip():
            i += 1
            continue
        if not line.startswith("["):
            if in_header:
                header_lines.append(line)
                i += 1
                continue
            raise OboSyntaxError(f"unexpected line outside a stanza: {line!r}", i + 1)
        in_header = False
        if line.strip() != "[Term]":
            # Opaque stanza: keep until the next stanza header or EOF.
            block = [line]
            i += 1
            while i < n and not lines[i].lstrip().startswith("["):
                stripped = lines[i].rstrip("\r")
                if stripped.strip():
                    block.append(stripped)
                i += 1
            trailing.append(tuple(block))
            continue

        stanza_start = i + 1
        i += 1
        term_id: str | None = None
        name = ""
        smiles: str | None = None
        parent_refs: list[tuple[str, int]] = []  # (target, line number)
        obsolete = False
        extra: list[str] = []
        while i < n:
            raw = lines[i].rstrip("\r")
            if raw.lstrip().startswith("["):
                break
            if not raw.strip():
                i += 1
                break
            lineno = i + 1
            if ":" not in raw:
                raise OboSyntaxError(f"expected 'tag: value', got {raw!r}", lineno)
            tag, _, value = raw.partition(":")
            tag = tag.strip()
            value = value.strip()
            if tag == "id":
                if term_id is not None:
                    raise OboSyntaxError("stanza has more than one id", lineno)
                if not value:
                    raise OboSyntaxError("empty id", lineno)
                term_id = _strip_comment(value)
            elif tag == "name":
                name = _strip_comment(value)
            elif tag == "is_a":
                target = _strip_comment(value)
                if not target:
                    raise OboSyntaxError("is_a with empty target", lineno)
                parent_refs.append((target, lineno))
            elif tag == "is_obsolete":
                obsolete = _strip_comment(value).lower() == "true"
            elif tag == "property_value":
                m = _PROPERTY_VALUE_RE.match(raw.strip())
                if m is not None and m.group("key") == SMILES_KEY:
                    smiles = _unescape(m.group("value"))
                    if not smiles:
                        raise OboSyntaxError("empty SMILES value", lineno)
                else:
                    extra.append(raw)
            else:
                extra.append(raw)
            i += 1
        if term_id is None:
            raise OboSyntaxError("[Term] stanza without an id", stanza_start)
        if term_id in classes:
            raise DuplicateIdError(term_id)
        for target, lineno in parent_refs:
            is_a_lines.append((term_id, target, lineno))
        classes[term_id] = OntologyClass(
            id=term_id,
            name=name,
            smiles=smiles,
            parents=frozenset(target for target, _ in parent_refs),
            obsolete=obsolete,
            extra_lines=tuple(extra),
        )

    for child, parent, lineno in is_a_lines:
        if parent not in classes:
            raise OboSyntaxError(
                f"is_a target {parent!r} is not declared in this file", lineno
            )
    return build_graph(classes, tuple(header_lines), tuple(trailing))


def insert_subsumptions(graph, additions):
    """Each (class, superclass ids) pair added as a leaf, then the whole
    graph rebuilt and revalidated by ``build_graph``."""
    new_classes = dict(graph._classes)
    for cls, superclasses in additions:
        if cls.id in new_classes:
            raise DuplicateIdError(cls.id)
        for sup in superclasses:
            if sup not in new_classes:
                raise UnknownClassError(sup)
        new_classes[cls.id] = replace(cls, parents=frozenset(superclasses))
    return build_graph(new_classes, graph.header_lines, graph.trailing_stanzas)


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
