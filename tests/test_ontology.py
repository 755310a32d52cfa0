import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontograft.extension import FreshIdAllocator
from ontograft.ontology import (
    SMILES_KEY,
    CycleError,
    DuplicateIdError,
    OboSyntaxError,
    OntologyClass,
    OntologyError,
    OntologyGraph,
    UnknownClassError,
    parse_obo,
    serialize_obo,
)
from ontograft.synthetic import generate_toy_ontology

import obo_oracle
from conftest import make_graph, random_dag

FENTIN = """\
[Term]
id: CHEBI:38962
name: organotin compound

[Term]
id: CHEBI:24651
name: hydroxides

[Term]
id: CHEBI:38964
name: fentin hydroxide
is_a: CHEBI:38962 ! organotin compound
is_a: CHEBI:24651
property_value: http://purl.obolibrary.org/obo/chebi/smiles "O[Sn](c1ccccc1)(c1ccccc1)c1ccccc1" xsd:string
"""


def bfs_ancestors(graph, start):
    """Independent oracle: breadth-first traversal over parent edges."""
    seen = set()
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for parent in graph[node].parents:
                if parent not in seen:
                    seen.add(parent)
                    nxt.append(parent)
        frontier = nxt
    return seen


def dfs_has_cycle(edges: dict[str, list[str]]) -> bool:
    """Independent oracle: recursive depth-first cycle search."""
    state = {}

    def visit(node):
        if state.get(node) == "active":
            return True
        if state.get(node) == "done":
            return False
        state[node] = "active"
        if any(visit(p) for p in edges.get(node, [])):
            return True
        state[node] = "done"
        return False

    return any(visit(n) for n in edges)


class TestParse:
    def test_minimal_stanza(self):
        graph = parse_obo("[Term]\nid: X\nname: x\n")
        assert len(graph) == 1
        assert graph["X"].name == "x"
        assert graph["X"].parents == frozenset()
        assert graph.is_leaf("X")

    def test_fentin_hydroxide_parents(self):
        graph = parse_obo(FENTIN)
        assert graph["CHEBI:38964"].parents == {"CHEBI:38962", "CHEBI:24651"}
        assert graph["CHEBI:38964"].smiles == "O[Sn](c1ccccc1)(c1ccccc1)c1ccccc1"

    def test_two_node_cycle_reported(self):
        text = "[Term]\nid: A\nis_a: B\n\n[Term]\nid: B\nis_a: A\n"
        assert dfs_has_cycle({"A": ["B"], "B": ["A"]})
        with pytest.raises(CycleError) as err:
            parse_obo(text)
        assert set(err.value.cycle) == {"A", "B"}

    def test_comment_stripped(self):
        graph = parse_obo("[Term]\nid: A\n\n[Term]\nid: B\nis_a: A ! parent label\n")
        assert graph["B"].parents == {"A"}

    def test_syntax_error_has_line_number(self):
        with pytest.raises(OboSyntaxError) as err:
            parse_obo("[Term]\nid: A\nthis line has no tag\n")
        assert err.value.line == 3

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            parse_obo("[Term]\nid: A\n\n[Term]\nid: A\n")

    def test_dangling_is_a(self):
        with pytest.raises(OboSyntaxError) as err:
            parse_obo("[Term]\nid: A\nis_a: MISSING\n")
        assert "MISSING" in str(err.value)
        assert err.value.line == 3

    def test_obsolete_parsed_but_not_leaf(self):
        text = (
            "[Term]\nid: A\n\n"
            "[Term]\nid: B\nis_a: A\nis_obsolete: true\n"
            'property_value: http://purl.obolibrary.org/obo/chebi/smiles "CC" xsd:string\n'
        )
        graph = parse_obo(text)
        assert graph["B"].obsolete
        assert graph.leaves() == set()
        assert graph.structured_leaves() == set()

    def test_unknown_lines_preserved(self):
        text = "[Term]\nid: A\nname: a\ndef: \"something\" []\nxref: CAS:1234\n"
        graph = parse_obo(text)
        assert graph["A"].extra_lines == ('def: "something" []', "xref: CAS:1234")

    def test_empty_smiles_rejected(self):
        text = '[Term]\nid: A\nproperty_value: http://purl.obolibrary.org/obo/chebi/smiles "" xsd:string\n'
        with pytest.raises(OboSyntaxError):
            parse_obo(text)


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        header = "format-version: 1.2\nontology: demo\n"
        text = header + "\n" + FENTIN + "\n[Typedef]\nid: has_part\nname: has part\n"
        graph = parse_obo(text)
        again = parse_obo(serialize_obo(graph))
        assert again == graph
        assert again.header_lines == graph.header_lines
        assert again.trailing_stanzas == graph.trailing_stanzas

    def test_smiles_escaping_round_trip(self):
        # E/Z bonds put backslashes in SMILES; OBO quotes must escape them
        cls = OntologyClass(id="A", name="a", smiles='C/C=C\\C')
        graph = OntologyGraph({"A": cls})
        again = parse_obo(serialize_obo(graph))
        assert again["A"].smiles == 'C/C=C\\C'

    def test_stanzas_sorted_by_id(self):
        graph = parse_obo("[Term]\nid: Z\n\n[Term]\nid: A\n")
        text = serialize_obo(graph)
        assert text.index("id: A") < text.index("id: Z")

    def test_random_graphs_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = random_dag(rng, int(rng.integers(2, 30)))
            assert parse_obo(serialize_obo(graph)) == graph


class TestQueries:
    def test_root_has_no_ancestors(self):
        graph = make_graph({"R": {}, "A": {"parents": ["R"]}})
        assert graph.ancestors("R") == set()

    def test_chain_ancestors(self):
        graph = make_graph({"C": {}, "B": {"parents": ["C"]}, "A": {"parents": ["B"]}})
        assert graph.ancestors("A") == {"B", "C"}
        assert graph.ancestors("A") == bfs_ancestors(graph, "A")

    def test_fentin_ancestors(self):
        graph = parse_obo(FENTIN)
        assert graph.ancestors("CHEBI:38964") == {"CHEBI:38962", "CHEBI:24651"}

    def test_ancestors_match_bfs_oracle_on_random_dags(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            graph = random_dag(rng, 40)
            for cid in graph.ids():
                assert graph.ancestors(cid) == bfs_ancestors(graph, cid)

    def test_ancestors_monotone_over_edges(self):
        rng = np.random.default_rng(23)
        graph = random_dag(rng, 60)
        for cid in graph.ids():
            for parent in graph[cid].parents:
                anc = graph.ancestors(cid)
                assert graph.ancestors(parent) | {parent} <= anc

    def test_unknown_id(self):
        graph = make_graph({"A": {}})
        with pytest.raises(UnknownClassError):
            graph.ancestors("nope")

    def test_structured_leaves_empty_graph(self):
        assert OntologyGraph({}).structured_leaves() == set()

    def test_structured_leaves_smiles_only_on_internal(self):
        graph = make_graph({"R": {"smiles": "CC"}, "A": {"parents": ["R"]}})
        assert graph.structured_leaves() == set()

    def test_structured_leaves_chain(self):
        graph = make_graph(
            {"C": {}, "B": {"parents": ["C"]}, "A": {"parents": ["B"], "smiles": "CC"}}
        )
        # oracle: exhaustive child-count check
        children = {cid: 0 for cid in graph.ids()}
        for cid in graph.ids():
            for parent in graph[cid].parents:
                children[parent] += 1
        expected = {
            cid for cid in graph.ids()
            if children[cid] == 0 and graph[cid].smiles is not None
        }
        assert graph.structured_leaves() == expected == {"A"}


class TestInsert:
    def base(self):
        return make_graph({"R": {}, "A": {"parents": ["R"]}, "B": {"parents": ["R"]}})

    def test_empty_additions_is_identity(self):
        graph = self.base()
        assert graph.insert_subsumptions([]) == graph

    def test_add_under_two_superclasses(self):
        graph = self.base()
        new = OntologyClass(id="N", name="new", smiles="CC")
        out = graph.insert_subsumptions([(new, ["A", "B"])])
        assert out["N"].parents == {"A", "B"}
        assert len(out.leaves()) == len(graph.leaves()) + 1 - 2  # A, B stop being leaves
        assert out.is_leaf("N")
        # functional: the original graph is untouched
        assert "N" not in graph

    def test_duplicate_new_id(self):
        graph = self.base()
        with pytest.raises(DuplicateIdError):
            graph.insert_subsumptions([(OntologyClass(id="A"), ["R"])])

    def test_unknown_superclass(self):
        graph = self.base()
        with pytest.raises(UnknownClassError):
            graph.insert_subsumptions([(OntologyClass(id="N"), ["missing"])])

    def test_addition_can_reference_earlier_addition(self):
        graph = self.base()
        out = graph.insert_subsumptions(
            [(OntologyClass(id="N1"), ["A"]), (OntologyClass(id="N2"), ["N1"])]
        )
        assert out["N2"].parents == {"N1"}

    def test_self_superclass_rejected(self):
        graph = self.base()
        with pytest.raises(OntologyError):
            graph.insert_subsumptions([(OntologyClass(id="N"), ["N"])])


class TestValidation:
    def test_cycle_error_from_constructor(self):
        a = OntologyClass(id="A", parents=frozenset(["B"]))
        b = OntologyClass(id="B", parents=frozenset(["A"]))
        with pytest.raises(CycleError):
            OntologyGraph({"A": a, "B": b})

    def test_missing_parent_rejected(self):
        a = OntologyClass(id="A", parents=frozenset(["nope"]))
        with pytest.raises(UnknownClassError):
            OntologyGraph({"A": a})

    def test_self_parent_rejected(self):
        with pytest.raises(OntologyError):
            OntologyClass(id="A", parents=frozenset(["A"]))


class TestInsertSharesAndSkipsRevalidation:
    """Grafting builds the extended graph from the base's parts: the base
    never changes, sibling extensions never see each other, and the errors
    are the ones full construction raised."""

    def base(self):
        return make_graph({
            "R": {}, "A": {"parents": ["R"]}, "B": {"parents": ["R"], "smiles": "CC"},
        })

    def test_two_extensions_of_one_base_are_independent(self):
        base = self.base()
        before = {cid: (base.children(cid), base.is_leaf(cid)) for cid in base.ids()}
        leaves_before = base.leaves()
        left = base.insert_subsumptions([(OntologyClass(id="X"), ["A"])])
        right = base.insert_subsumptions([(OntologyClass(id="Y"), ["A", "B"])])
        assert "X" in left and "Y" not in left
        assert "Y" in right and "X" not in right
        assert left.children("A") == {"X"}
        assert right.children("A") == {"Y"} and right.children("B") == {"Y"}
        assert left.leaves() == {"X", "B"}
        assert right.leaves() == {"Y"}
        assert {cid: (base.children(cid), base.is_leaf(cid)) for cid in base.ids()} == before
        assert base.leaves() == leaves_before == {"A", "B"}
        assert len(base) == 3

    def test_extension_of_an_extension_leaves_both_intact(self):
        base = self.base()
        once = base.insert_subsumptions([(OntologyClass(id="X"), ["A"])])
        twice = once.insert_subsumptions([(OntologyClass(id="Y"), ["A", "X"])])
        assert base.children("A") == frozenset()
        assert once.children("A") == {"X"} and once.is_leaf("X")
        assert twice.children("A") == {"X", "Y"} and twice.children("X") == {"Y"}
        assert twice.descendants("R") == {"A", "B", "X", "Y"}

    @pytest.mark.parametrize(
        "additions, error",
        [
            ([(OntologyClass(id="A"), ["R"])], DuplicateIdError),
            ([(OntologyClass(id="N"), ["R"]), (OntologyClass(id="N"), ["A"])], DuplicateIdError),
            ([(OntologyClass(id="N"), ["missing"])], UnknownClassError),
            ([(OntologyClass(id="N1"), ["N2"]), (OntologyClass(id="N2"), ["A"])], UnknownClassError),
            ([(OntologyClass(id="N"), ["N"])], UnknownClassError),
            ([(OntologyClass(id="N"), ["A"]), (OntologyClass(id="M"), ["M", "N"])], UnknownClassError),
        ],
        ids=["existing-id", "repeated-new-id", "unknown", "added-later", "itself", "itself-after-others"],
    )
    def test_errors_match_full_construction(self, additions, error):
        base = self.base()
        with pytest.raises(error) as expected:
            obo_oracle.insert_subsumptions(base, additions)
        with pytest.raises(error) as got:
            base.insert_subsumptions(additions)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert base.ids() == ["A", "B", "R"]

    def test_no_cycle_search_and_no_full_construction(self, monkeypatch):
        base = self.base()

        def refuse(*args, **kwargs):
            raise AssertionError("insert_subsumptions revalidated the whole graph")

        monkeypatch.setattr(OntologyGraph, "_find_cycle", refuse)
        monkeypatch.setattr(OntologyGraph, "__init__", refuse)
        out = base.insert_subsumptions(
            [(OntologyClass(id="N1"), ["A", "B"]), (OntologyClass(id="N2"), ["N1"])]
        )
        assert out.children("N1") == {"N2"}
        assert out.ancestors("N2") == {"N1", "A", "B", "R"}


# Ids mix ASCII and non-ASCII decimal digits (Arabic-Indic, Devanagari,
# mathematical double-struck), digit-free ids and a trailing newline, which
# ``$`` matches before.
_ID_CHARS = list("AB:x_0179") + ["\u0661", "\u0669", "\u0967", "\U0001d7d9", "\n"]
_TEXT = st.text(st.sampled_from(list('Cc()=O"\\! #[]') + ["\u00e9"]), max_size=8)


@st.composite
def grafts(draw):
    """(base graph, two batches of additions, edge comments).  Each base
    class takes parents among the earlier ones, so the base is acyclic.
    About half the cases add fresh ids under base classes and earlier
    additions; the rest may also reference unknown ids, later additions or
    the class itself, and may reuse an id."""
    ids = draw(st.lists(st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=5),
                        max_size=12, unique=True))
    classes = {}
    for i, cid in enumerate(ids):
        parents = draw(st.sets(st.sampled_from(ids[:i]), max_size=3)) if i else set()
        smiles = draw(st.one_of(st.none(), _TEXT.filter(bool)))
        classes[cid] = OntologyClass(
            id=cid, name=draw(_TEXT), smiles=smiles, parents=frozenset(parents),
            obsolete=draw(st.booleans()),
            extra_lines=tuple(draw(st.lists(_TEXT.map("xref: {}".format), max_size=2))),
        )
    base = OntologyGraph(
        classes,
        header_lines=tuple(draw(st.lists(_TEXT.map("remark: {}".format), max_size=2))),
        trailing_stanzas=tuple(
            ("[Typedef]", f"id: {t}") for t in draw(st.lists(_TEXT, max_size=2))
        ),
    )
    new_ids = draw(st.lists(st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=5),
                            max_size=6, unique=True))
    if draw(st.booleans()):  # mostly valid batches; otherwise any reference or a reused id
        new_ids = [nid for nid in new_ids if nid not in classes]
        pool = None
    else:
        new_ids += draw(st.lists(st.sampled_from(ids + new_ids or ["x"]), max_size=1))
        pool = ids + new_ids + ["missing"]
    additions = []
    for j, nid in enumerate(new_ids):
        targets = pool or ids + new_ids[:j]
        sups = draw(st.lists(st.sampled_from(targets), max_size=3)) if targets else []
        smiles = draw(st.one_of(st.none(), _TEXT.filter(bool)))
        additions.append((OntologyClass(id=nid, name=draw(_TEXT), smiles=smiles), sups))
    cut = draw(st.integers(0, len(additions)))
    edges = [(cls.id, sup) for cls, sups in additions for sup in sups]
    edges += [(cid, p) for cid, cls in classes.items() for p in cls.parents]
    comments = {edge: draw(st.sampled_from(["", "confidence=0.9000", "x ! y"]))
                for edge in draw(st.lists(st.sampled_from(edges), max_size=4))} if edges else {}
    return base, (additions[:cut], additions[cut:]), comments


def outcome(insert, graph, additions):
    try:
        return insert(graph, additions), None
    except OntologyError as exc:
        return None, (type(exc), str(exc))


def assert_same_graph(got, ref, comments):
    assert got == ref
    assert got.ids() == ref.ids() and list(got) == list(ref._classes)
    assert (got.header_lines, got.trailing_stanzas) == (ref.header_lines, ref.trailing_stanzas)
    assert got.leaves() == ref.leaves()
    assert got.structured_leaves() == ref.structured_leaves()
    for cid in ref.ids():
        assert got.children(cid) == ref.children(cid)
        assert got.is_leaf(cid) == ref.is_leaf(cid)
        assert got.ancestors(cid) == ref.ancestors(cid)
        assert got.descendants(cid) == ref.descendants(cid)
    text = serialize_obo(got, edge_comments=comments)
    assert text.encode() == obo_oracle.serialize_obo(ref, edge_comments=comments).encode()


class TestGraftAgainstOracle:
    """Insert, serialize and the fresh-id scan against full construction,
    the line-by-line serializer and the sorted ``re.search`` loop."""

    @settings(max_examples=300, deadline=None)
    @given(case=grafts())
    def test_same_graph_errors_and_bytes(self, case):
        base, batches, comments = case
        snapshot = obo_oracle.serialize_obo(base), {c: base.children(c) for c in base.ids()}
        got, ref = base, base
        for batch in batches:
            got, got_error = outcome(OntologyGraph.insert_subsumptions, got, batch)
            ref, ref_error = outcome(obo_oracle.insert_subsumptions, ref, batch)
            assert got_error == ref_error
            if ref_error is not None:
                break
            assert_same_graph(got, ref, comments)
            assert FreshIdAllocator(got).allocate() == (
                f"ONTOGRAFT:{obo_oracle.first_fresh_number(ref):06d}")
        assert (obo_oracle.serialize_obo(base), {c: base.children(c) for c in base.ids()}) == snapshot
        assert_same_graph(base, OntologyGraph(dict(base._classes), base.header_lines,
                                              base.trailing_stanzas), comments)

    def test_empty_graph(self):
        empty = OntologyGraph({})
        assert serialize_obo(empty) == obo_oracle.serialize_obo(empty) == ""
        assert FreshIdAllocator(empty).allocate() == "ONTOGRAFT:000001"
        out = empty.insert_subsumptions([(OntologyClass(id="N1"), [])])
        assert_same_graph(out, obo_oracle.insert_subsumptions(empty, [(OntologyClass(id="N1"), [])]), {})

    def test_escaped_smiles_comments_obsolete_and_extra_lines(self):
        graph = make_graph({
            "CHEBI:1": {}, "CHEBI:2": {"parents": ["CHEBI:1"], "obsolete": True},
            "CHEBI:3": {"parents": ["CHEBI:1", "CHEBI:2"], "smiles": 'C"C\\N'},
        })
        graph = OntologyGraph(
            {**dict(graph._classes), "CHEBI:4": OntologyClass(
                id="CHEBI:4", parents=frozenset(["CHEBI:3"]), extra_lines=("xref: a", "synonym: b"))},
            header_lines=("format-version: 1.2",),
            trailing_stanzas=(("[Typedef]", "id: part_of"),),
        )
        comments = {("CHEBI:3", "CHEBI:2"): "confidence=0.5000", ("CHEBI:4", "CHEBI:3"): ""}
        text = serialize_obo(graph, edge_comments=comments)
        assert text == obo_oracle.serialize_obo(graph, edge_comments=comments)
        assert '"C\\"C\\\\N"' in text and "is_a: CHEBI:2 ! confidence=0.5000" in text
        assert parse_obo(text) == graph

    @pytest.mark.parametrize(
        "ids, first",
        [
            (["root", "alpha"], 1),
            (["X:\u0661\u0662", "X:9"], 13),  # Arabic-Indic 12
            (["X:7\n", "Y:3"], 8),  # $ matches before a final newline
            (["X:\U0001d7d9\U0001d7d8", "b2a"], 11),  # double-struck 10; b2a has no trailing digits
        ],
    )
    def test_fresh_id_scan_reads_like_re_search(self, ids, first):
        graph = make_graph({cid: {} for cid in ids})
        assert obo_oracle.first_fresh_number(graph) == first
        assert FreshIdAllocator(graph, prefix="N:", width=3).allocate() == f"N:{first:03d}"


# The parser against the line-by-line oracle.  Stanza bodies mix the tags the
# parser reads with the extra lines real ChEBI stanzas carry; a malformed
# case breaks one stanza or the hierarchy.
_OBO_IDS = ["A:1", "A:2", "B:3", "C:4", "D:5"]
_VALUE = st.text(st.sampled_from(list('Cc()=O"\\! #[]:') + ["é", "\t"]), max_size=8)
_EXTRA = st.sampled_from([
    'synonym: "tin hydroxide" EXACT [ChEBI]', "xref: CAS:76-87-9 ! CAS", 'def: "a \\"def\\"" []',
    "subset: 3_STAR", " name : spaced tag", "comment:", "is_a_like: x",
    'property_value: http://example.org/mass "12.0" xsd:string',
    'property_value: http://purl.obolibrary.org/obo/chebi/smiles "CC" xsd:double',
])
_BLANK = st.sampled_from(["", "", "  ", "\t"])
_BROKEN = st.sampled_from([
    "is_a", "no colon here", "  [Term]", "is_a:", "is_a: ! only a comment", "id:",
    "id: ! only a comment", "stray text",
    'property_value: http://purl.obolibrary.org/obo/chebi/smiles "" xsd:string',
])


def _smiles_line(value: str, escape: bool) -> str:
    if escape:
        value = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'property_value: {SMILES_KEY} "{value}" xsd:string'


@st.composite
def obo_texts(draw):
    """OBO text: header lines, [Term] stanzas (parents among earlier ids),
    opaque stanzas, comments, escaped and raw SMILES, extra lines, stray
    blank lines and \\r\\n endings; about half the cases then take one
    malformation (a broken, deleted or repeated line, an unknown or own
    is_a target, a repeated stanza, a 2- or 3-class cycle)."""
    ids = _OBO_IDS[: draw(st.integers(0, len(_OBO_IDS)))]
    comment = st.sampled_from(["", "", " ! a comment", " !"])
    stanzas = []
    for i, cid in enumerate(ids):
        body = [f"id: {cid}{draw(comment)}"]
        if draw(st.booleans()):
            body.append(f"name: {draw(_VALUE)}")
        parents = draw(st.lists(st.sampled_from(ids[:i]), max_size=2)) if i else []
        body += [f"is_a: {p}{draw(comment)}" for p in parents]
        if draw(st.booleans()):
            body.append(_smiles_line(draw(_VALUE.filter(bool)), escape=draw(st.booleans())))
        if draw(st.booleans()):
            body.append(f"is_obsolete: {draw(st.sampled_from(['true', 'false', 'TRUE ! x']))}")
        body += draw(st.lists(_EXTRA, max_size=3))
        body = draw(st.permutations(body))
        stanzas.append([draw(st.sampled_from(["[Term]", "[Term]  "]))] + body)
    for _ in range(draw(st.integers(0, 2))):
        block = ["[Typedef]", "id: part_of"] + draw(st.lists(st.sampled_from(
            ["name: part of", "", "is_transitive: true", "xref: BFO:0000050"]), max_size=3))
        stanzas.insert(draw(st.integers(0, len(stanzas))), block)
    if ids and draw(st.booleans()):
        stanza = draw(st.sampled_from([s for s in stanzas if s[0].startswith("[Term]")]))
        kind = draw(st.sampled_from(["broken", "delete", "repeat", "unknown", "itself",
                                     "stanza", "cycle"]))
        at = draw(st.integers(1, len(stanza)))
        if kind == "broken":
            stanza.insert(at, draw(_BROKEN))
        elif kind == "delete":
            del stanza[at - 1]
        elif kind == "repeat":
            stanza.insert(at, stanza[at - 1])
        elif kind in ("unknown", "itself"):
            own = stanza[[line.startswith("id:") for line in stanza].index(True)][4:]
            stanza.insert(at, f"is_a: {'missing' if kind == 'unknown' else own.split(' !')[0]}")
        elif kind == "stanza":
            stanzas.append(list(stanza))
        else:  # each class of the cycle names the next as a parent
            size = min(len(ids), draw(st.sampled_from([2, 3])))
            for k, s in enumerate(s for s in stanzas if s[0].startswith("[Term]")):
                if k < size:
                    s.append(f"is_a: {ids[(k + 1) % size]}")
    lines = draw(st.lists(st.sampled_from(["format-version: 1.2", "ontology: t",
                                           "remark: a ! b", "date: 20:10"]), max_size=2))
    for stanza in stanzas:
        lines += [draw(_BLANK) for _ in range(draw(st.integers(0, 1)))]
        lines += stanza + [draw(_BLANK)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def parse_outcome(parse, text):
    try:
        return parse(text), None
    except OntologyError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "cycle", None))


def assert_same_error(got, ref, text):
    """``got`` is the oracle's error ``ref``, except for the two errors the
    oracle raises untyped from ``OntologyClass``: parse_obo raises them as
    OboSyntaxError with the same message, at an is_a line naming the class
    itself or at an id line whose value is only a comment."""
    if ref is None or ref[0] is not OntologyError:
        assert got == ref
        return
    kind, message, line, cycle = got
    assert (kind, message, cycle) == (OboSyntaxError, f"line {line}: {ref[1]}", None)
    tag, _, value = text.split("\n")[line - 1].rstrip("\r").partition(":")
    if ref[1] == "class id must be non-empty":
        assert (tag, value.strip()[:1]) == ("id", "!")
    else:
        own = re.fullmatch(r"class (.+) lists itself as a parent", ref[1]).group(1)
        assert (tag, value.split("!")[0].strip()) == ("is_a", own)


class TestParseAgainstOracle:
    """``parse_obo`` against the line-by-line parser with the depth-first
    cycle search: the same classes in the same order, header lines, opaque
    stanzas and bytes, or the same error, message, line and cycle."""

    @settings(max_examples=400, deadline=None)
    @given(text=obo_texts())
    def test_same_graph_or_error(self, text):
        got, got_error = parse_outcome(parse_obo, text)
        ref, ref_error = parse_outcome(obo_oracle.parse_obo, text)
        assert_same_error(got_error, ref_error, text)
        if ref is not None:
            assert got == ref and list(got) == list(ref)
            assert (got.header_lines, got.trailing_stanzas) == (ref.header_lines, ref.trailing_stanzas)
            for cid in ref:
                assert got.children(cid) == ref.children(cid)
            assert serialize_obo(got).encode() == obo_oracle.serialize_obo(ref).encode()

    @pytest.mark.parametrize("text, error", [
        ("[Term]\nname: x\n", "line 1: [Term] stanza without an id"),
        ("[Term]\nid: A\nid: B\n", "line 3: stanza has more than one id"),
        ("[Term]\nid: A\nis_a\n", "line 3: expected 'tag: value', got 'is_a'"),
        ("[Term]\r\nid: A\r\nis_a\r\n", "line 3: expected 'tag: value', got 'is_a'"),
        ("[Term]\nid: A\n  [Term]\nid: B\n", "line 3: unexpected line outside a stanza: '  [Term]'"),
        ("[Term]\nid: A\nis_a: ! c\n", "line 3: is_a with empty target"),
        ("[Term]\nid: A\nis_a: B\n\n[Term]\nid: B\nis_a: A\n", "subsumption cycle: A -> B -> A"),
        ("[Term]\nid: A\nis_a: A\n", "line 3: class A lists itself as a parent"),
        ("[Term]\nid: B\n\n[Term]\nis_a: B\nis_a: A ! self\nid: A\nis_a: A\n",
         "line 6: class A lists itself as a parent"),
        ("[Term]\nid: ! only a comment\nis_a: B\n", "line 2: class id must be non-empty"),
        ("[Term]\nid: A\n" + _smiles_line("", False) + "\n", "line 3: empty SMILES value"),
        ("[Term]\nid: A\n\nstray\n", "line 4: unexpected line outside a stanza: 'stray'"),
        ("[Term]\nid:  \n", "line 2: empty id"),
    ])
    def test_errors_read_as_before(self, text, error):
        _, got = parse_outcome(parse_obo, text)
        assert_same_error(got, parse_outcome(obo_oracle.parse_obo, text)[1], text)
        assert got[1] == error

    def test_acyclic_graphs_never_search_for_a_cycle(self, monkeypatch):
        texts = [FENTIN] + [serialize_obo(generate_toy_ontology(seed)) for seed in (0, 3)]
        texts += [serialize_obo(random_dag(np.random.default_rng(s), 60)) for s in range(3)]
        expected = [obo_oracle.parse_obo(text) for text in texts]

        def refuse(*args, **kwargs):
            raise AssertionError("an acyclic graph ran the depth-first cycle search")

        monkeypatch.setattr(OntologyGraph, "_find_cycle", refuse)
        for text, ref in zip(texts, expected):
            assert parse_obo(text) == ref

    @pytest.mark.parametrize("edges", [
        {"A": ["B"], "B": ["A"]},
        {"A": ["B"], "B": ["C"], "C": ["A"]},
        {"R": [], "A": ["R", "C"], "B": ["A"], "C": ["B"], "L": ["A"], "M": ["L", "R"]},
        {"R": [], "X": ["R", "Y"], "Y": ["X"], "U": ["Y"], "P": ["Q"], "Q": ["P", "R"]},
    ], ids=["two", "three", "three-under-a-root-with-leaves", "two-cycles"])
    def test_cycles_named_as_by_the_oracle(self, edges):
        text = "".join(f"[Term]\nid: {cid}\n" + "".join(f"is_a: {p}\n" for p in ps) + "\n"
                       for cid, ps in edges.items())
        _, got = parse_outcome(parse_obo, text)
        assert got[0] is CycleError
        assert got == parse_outcome(obo_oracle.parse_obo, text)[1]
        classes = {cid: OntologyClass(id=cid, parents=frozenset(ps)) for cid, ps in edges.items()}
        with pytest.raises(CycleError) as built:
            OntologyGraph(classes)
        with pytest.raises(CycleError) as oracle:
            obo_oracle.build_graph(classes)
        assert built.value.cycle == oracle.value.cycle


class TestEquality:
    def test_header_and_opaque_stanzas_count(self):
        graph = make_graph({"A": {}, "B": {"parents": ["A"]}})
        classes = dict(graph._classes)
        assert graph == OntologyGraph(classes)
        assert graph != OntologyGraph(classes, header_lines=("format-version: 1.2",))
        assert graph != OntologyGraph(classes, trailing_stanzas=(("[Typedef]", "id: part_of"),))
        assert graph != OntologyGraph({"A": classes["A"]})
