"""Class hierarchy handling: parse an OBO-subset file, query the DAG, add subclasses.

The graph is immutable after construction; every mutating operation returns a
new graph, so instances can be shared freely between threads.

``parse_obo`` reads the text in one pass over its lines.
``OntologyGraph.__init__`` is the one validating entry point: parsed and
hand-built graphs get the parent check and then the acyclicity check there.
That check (``_peel``) peels classes upward from the leaves, as Kahn's
topological sort does; a depth-first search runs only when some class is left
over, to name the cycle.  Classes without children share one empty child set.
``insert_subsumptions`` costs what it adds instead.  The extended
graph copies the class dict and the children map, gives a new child set only
to the parents that gain a child, and shares every other child set with the
graph it came from; no graph mutates a child set after construction, so
sharing is safe.  It needs no cycle search: each added class has no
children and may only reference classes already present, so no path can
lead back to it and an acyclic graph stays acyclic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

# The property_value key whose value is a class's SMILES: the ChEBI IRI.
SMILES_KEY = "http://purl.obolibrary.org/obo/chebi/smiles"


class OntologyError(Exception):
    """Base class for all ontology parsing/graph errors."""


class OboSyntaxError(OntologyError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateIdError(OntologyError):
    def __init__(self, class_id: str):
        super().__init__(f"duplicate class id: {class_id}")
        self.class_id = class_id


class UnknownClassError(OntologyError):
    def __init__(self, class_id: str):
        super().__init__(f"unknown class id: {class_id}")
        self.class_id = class_id


class CycleError(OntologyError):
    def __init__(self, cycle: list[str]):
        super().__init__("subsumption cycle: " + " -> ".join(cycle + cycle[:1]))
        self.cycle = cycle


@dataclass(frozen=True)
class OntologyClass:
    """One ontology class: an id, a label, optional SMILES, and its direct parents."""

    id: str
    name: str = ""
    smiles: str | None = None
    parents: frozenset[str] = frozenset()
    obsolete: bool = False
    # Unrecognized stanza lines, kept verbatim for lossless re-serialization.
    extra_lines: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise OntologyError("class id must be non-empty")
        if self.id in self.parents:
            raise OntologyError(f"class {self.id} lists itself as a parent")
        if self.smiles is not None and not self.smiles:
            raise OntologyError(f"class {self.id}: SMILES present but empty")
        if not isinstance(self.parents, frozenset):
            object.__setattr__(self, "parents", frozenset(self.parents))


_NO_CHILDREN = frozenset()


class OntologyGraph:
    """Acyclic is_a hierarchy over :class:`OntologyClass` instances.

    Construction validates that every referenced parent exists and that the
    subsumption relation is acyclic.
    """

    def __init__(
        self,
        classes: dict[str, OntologyClass],
        header_lines: tuple[str, ...] = (),
        trailing_stanzas: tuple[tuple[str, ...], ...] = (),
    ):
        children: dict[str, set[str] | frozenset[str]] = dict.fromkeys(classes, _NO_CHILDREN)
        for cid, cls in classes.items():
            if cid != cls.id:
                raise OntologyError(f"class keyed as {cid} but has id {cls.id}")
            for parent in cls.parents:
                kids = children.get(parent)
                if kids is None:
                    raise UnknownClassError(parent)
                if kids is _NO_CHILDREN:
                    children[parent] = {cid}
                else:
                    kids.add(cid)
        self._classes = dict(classes)
        self.header_lines = tuple(header_lines)
        self.trailing_stanzas = tuple(trailing_stanzas)
        self._children = children
        self._peel()

    def _peel(self) -> list[str]:
        """Every class that has children, each after all of its children:
        peeled upward from the leaves, as Kahn's topological sort does, a
        class goes once all its children have gone.  Leaves go at once and
        are not listed.  A class that never goes lies on or above a cycle;
        only then does the depth-first search run, to name it in a
        ``CycleError``.  Construction runs this as its acyclicity check, and
        label selection builds its member sets in this order."""
        classes = self._classes
        waiting = {cid: 0 for cid, kids in self._children.items() if kids}
        for cid in waiting:
            for parent in classes[cid].parents:
                waiting[parent] += 1
        gone = [cid for cid, n in waiting.items() if not n]
        for cid in gone:  # grows while it is read
            for parent in classes[cid].parents:
                waiting[parent] -= 1
                if not waiting[parent]:
                    gone.append(parent)
        if len(gone) < len(waiting):
            raise CycleError(self._find_cycle())
        return gone

    def _find_cycle(self) -> list[str] | None:
        """Depth-first search over parent edges; returns one cycle if any."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {cid: WHITE for cid in self._classes}
        for start in self._classes:
            if color[start] != WHITE:
                continue
            path: list[str] = []
            stack: list[tuple[str, bool]] = [(start, False)]
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
                for parent in sorted(self._classes[node].parents):
                    if color[parent] == GRAY:
                        return path[path.index(parent):]
                    if color[parent] == WHITE:
                        stack.append((parent, False))
        return None

    def __contains__(self, class_id: str) -> bool:
        return class_id in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self):
        """Class ids in insertion order; ``ids()`` sorts them."""
        return iter(self._classes)

    def __eq__(self, other) -> bool:
        return isinstance(other, OntologyGraph) and (
            self._classes, self.header_lines, self.trailing_stanzas
        ) == (other._classes, other.header_lines, other.trailing_stanzas)

    def __getitem__(self, class_id: str) -> OntologyClass:
        try:
            return self._classes[class_id]
        except KeyError:
            raise UnknownClassError(class_id) from None

    def ids(self) -> list[str]:
        return sorted(self._classes)

    def children(self, class_id: str) -> frozenset[str]:
        self[class_id]
        return frozenset(self._children[class_id])

    def is_leaf(self, class_id: str) -> bool:
        return not self._children[self[class_id].id]

    def ancestors(self, class_id: str) -> set[str]:
        """All transitive superclasses of ``class_id``, excluding itself."""
        self[class_id]
        seen: set[str] = set()
        frontier = list(self._classes[class_id].parents)
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._classes[node].parents)
        return seen

    def descendants(self, class_id: str) -> set[str]:
        """All transitive subclasses of ``class_id``, excluding itself."""
        self[class_id]
        seen: set[str] = set()
        frontier = list(self._children[class_id])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._children[node])
        return seen

    def leaves(self) -> set[str]:
        """Non-obsolete classes with no children."""
        return {
            cid
            for cid, cls in self._classes.items()
            if not self._children[cid] and not cls.obsolete
        }

    def structured_leaves(self) -> set[str]:
        """Leaves that carry a SMILES annotation."""
        return {cid for cid, cls in self._classes.items()
                if cls.smiles is not None and not self._children[cid] and not cls.obsolete}

    def insert_subsumptions(
        self, additions: list[tuple[OntologyClass, list[str]]]
    ) -> "OntologyGraph":
        """Return a new graph with each (class, superclass ids) pair added as a leaf.

        Superclasses may reference classes added earlier in ``additions``.
        The receiver is left unmodified.  Only the superclasses' child sets
        are copied, and no cycle search runs (see the module docstring).
        """
        classes = dict(self._classes)
        children = dict(self._children)
        owned: set[str] = set()  # ids whose child set is this graph's own copy
        for cls, superclasses in additions:
            if cls.id in classes:
                raise DuplicateIdError(cls.id)
            for sup in superclasses:
                if sup not in classes:
                    raise UnknownClassError(sup)
            new = replace(cls, parents=frozenset(superclasses))
            classes[new.id] = new
            children[new.id] = _NO_CHILDREN
            for sup in new.parents:
                if sup not in owned:
                    children[sup] = set(children[sup])
                    owned.add(sup)
                children[sup].add(new.id)
        graph = object.__new__(OntologyGraph)
        graph._classes, graph._children = classes, children
        graph.header_lines, graph.trailing_stanzas = self.header_lines, self.trailing_stanzas
        return graph


_PROPERTY_VALUE_RE = re.compile(
    r'^property_value:\s*(?P<key>\S+)\s+"(?P<value>[^"\\]*(?:\\.[^"\\]*)*)"\s+xsd:string\s*$'
)

_TERM_TAGS = frozenset(("id", "name", "is_a", "is_obsolete", "property_value"))


def _strip_comment(value: str) -> str:
    """Drop an OBO trailing comment (everything after an unescaped ``!``)."""
    pos = value.find("!")
    return value if pos < 0 else value[:pos].rstrip()


def _unescape(value: str) -> str:
    return value.replace('\\"', '"').replace("\\\\", "\\")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def parse_obo(text: str) -> OntologyGraph:
    """Parse the supported OBO subset into an :class:`OntologyGraph`.

    Recognized inside ``[Term]`` stanzas: ``id:``, ``name:``, ``is_a:``
    (trailing ``!`` comment stripped), ``is_obsolete:``, and
    ``property_value: <SMILES_KEY> "..." xsd:string``.  Anything else is kept
    verbatim.  Non-``[Term]`` stanzas are preserved as opaque blocks.
    """
    header_lines: list[str] = []
    classes: dict[str, OntologyClass] = {}
    trailing: list[tuple[str, ...]] = []
    is_a_targets: list[str] = []  # every is_a target in file order, and its line
    is_a_lines: list[int] = []
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    last = len(lines)
    lines.append("[")  # closes the last stanza; read as no stanza of its own
    in_header, term_start, block = True, 0, None  # term_start: the open [Term]'s line
    for lineno, line in enumerate(lines, 1):
        if term_start:
            tag, sep, value = line.partition(":")
            if not sep or tag not in _TERM_TAGS:
                if not line.strip() or line.lstrip().startswith("["):
                    # the stanza ends; the line is read below as outside it
                    if term_id is None:
                        raise OboSyntaxError("[Term] stanza without an id", term_start)
                    if term_id in classes:
                        raise DuplicateIdError(term_id)
                    if not term_id:  # the id was only a comment
                        raise OboSyntaxError("class id must be non-empty", id_line)
                    if term_id in parents:  # this stanza's is_a lines end is_a_lines
                        at = len(is_a_lines) - len(parents) + parents.index(term_id)
                        raise OboSyntaxError(f"class {term_id} lists itself as a parent",
                                             is_a_lines[at])
                    classes[term_id] = OntologyClass(
                        term_id, name, smiles, frozenset(parents), obsolete, tuple(extra)
                    )
                    term_start = 0
                elif not sep:
                    raise OboSyntaxError(f"expected 'tag: value', got {line!r}", lineno)
                elif (tag := tag.strip()) not in _TERM_TAGS:
                    extra.append(line)
                    continue
            if term_start:
                if tag == "is_a":
                    value = value.strip()
                    if "!" in value:
                        value = _strip_comment(value)
                    if not value:
                        raise OboSyntaxError("is_a with empty target", lineno)
                    parents.append(value)
                    is_a_targets.append(value)
                    is_a_lines.append(lineno)
                elif tag == "property_value":
                    m = _PROPERTY_VALUE_RE.match(line.strip())
                    if m is not None and m.group("key") == SMILES_KEY:
                        smiles = _unescape(m.group("value"))
                        if not smiles:
                            raise OboSyntaxError("empty SMILES value", lineno)
                    else:
                        extra.append(line)
                elif tag == "id":
                    if term_id is not None:
                        raise OboSyntaxError("stanza has more than one id", lineno)
                    value = value.strip()
                    if not value:
                        raise OboSyntaxError("empty id", lineno)
                    term_id = _strip_comment(value) if "!" in value else value
                    id_line = lineno
                elif tag == "name":
                    value = value.strip()
                    name = _strip_comment(value) if "!" in value else value
                else:  # is_obsolete
                    obsolete = _strip_comment(value.strip()).lower() == "true"
                continue
        if block is not None:  # an opaque stanza runs to the next stanza header
            if not line.lstrip().startswith("["):
                if line.strip():
                    block.append(line)
                continue
            trailing.append(tuple(block))
            block = None
        if not line.strip():
            continue
        if not line.startswith("["):
            if in_header:
                header_lines.append(line)
                continue
            raise OboSyntaxError(f"unexpected line outside a stanza: {line!r}", lineno)
        if lineno > last:
            break
        in_header = False
        if line.strip() == "[Term]":
            term_start, term_id, name, smiles, obsolete = lineno, None, "", None, False
            parents, extra = [], []
        else:
            block = [line]

    for target, lineno in zip(is_a_targets, is_a_lines):
        if target not in classes:
            raise OboSyntaxError(
                f"is_a target {target!r} is not declared in this file", lineno
            )
    return OntologyGraph(
        classes, header_lines=tuple(header_lines), trailing_stanzas=tuple(trailing)
    )


def serialize_obo(
    graph: OntologyGraph,
    edge_comments: dict[tuple[str, str], str] | None = None,
) -> str:
    """Serialize a graph to the OBO subset, stanzas sorted by class id.

    ``edge_comments`` may attach an OBO comment to individual is_a lines,
    keyed by (child id, parent id); used to annotate inserted edges with
    prediction confidences.
    """
    edge_comments = edge_comments or {}
    out: list[str] = list(graph.header_lines)
    if out:
        out.append("")
    classes = graph._classes
    for cid in sorted(classes):
        cls = classes[cid]
        # one string per stanza's recognized lines, joined as the lines were
        stanza = f"[Term]\nid: {cid}"
        if cls.name:
            stanza += f"\nname: {cls.name}"
        parents = cls.parents
        for parent in parents if len(parents) < 2 else sorted(parents):
            comment = edge_comments.get((cid, parent))
            stanza += f"\nis_a: {parent} ! {comment}" if comment else f"\nis_a: {parent}"
        if cls.smiles is not None:
            stanza += f'\nproperty_value: {SMILES_KEY} "{_escape(cls.smiles)}" xsd:string'
        if cls.obsolete:
            stanza += "\nis_obsolete: true"
        out.append(stanza)
        out.extend(cls.extra_lines)
        out.append("")
    for block in graph.trailing_stanzas:
        out.extend(block)
        out.append("")
    return "\n".join(out)


def load_obo(path) -> OntologyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_obo(fh.read())


def save_obo(
    graph: OntologyGraph,
    path,
    edge_comments: dict[tuple[str, str], str] | None = None,
) -> None:
    from ._io import atomic_write_text

    atomic_write_text(path, serialize_obo(graph, edge_comments=edge_comments))
