import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontograft.dataset import DatasetError, DatasetSplits, LabelIndex, LabeledMolecule
from ontograft.extension import (
    ClassificationResult,
    ExtensionError,
    ExtensionProposal,
    FreshIdAllocator,
    classify_batch,
    edge_comment_map,
    extend,
    propose_extensions,
    prune_to_most_specific,
)
from ontograft.model import ModelConfig, init_model
from ontograft.ontology import (
    DuplicateIdError,
    OntologyClass,
    OntologyGraph,
    UnknownClassError,
    serialize_obo,
)
from ontograft.tokenizer import train_bpe
from ontograft.training import TrainConfig, finetune

import obo_oracle

import obo_oracle
from conftest import make_graph


def trained_toy():
    """Tiny overfit model: 3 motif labels over 12 molecules."""
    rng = np.random.default_rng(0)
    motifs = ["N", "O", "S"]
    molecules = []
    for i in range(12):
        present = rng.random(3) < 0.5
        if not present.any():
            present[i % 3] = True
        body = "C" * (1 + i % 4)
        for j, flag in enumerate(present):
            if flag:
                body += "(" + motifs[j] + ")"
        body += "C" * (i // 3)
        molecules.append(LabeledMolecule(body, present.astype(np.int8)))
    tok = train_bpe([m.smiles for m in molecules], target_vocab=25, max_len=32)
    config = ModelConfig(
        vocab_size=len(tok.vocab), n_labels=3, n_layers=1, n_heads=2,
        hidden_dim=16, ffn_dim=32, max_len=32, seed=0,
    )
    store = init_model(config)
    splits = DatasetSplits(train=molecules, validation=molecules[:4], test=[])
    finetune(store, config, tok, splits,
             TrainConfig(epochs=150, batch_size=4, learning_rate=3e-3, seed=0))
    labels = LabelIndex(("TOY:N", "TOY:O", "TOY:S"))
    return store, config, tok, labels, molecules


@pytest.fixture(scope="module")
def toy_model():
    return trained_toy()


class TestClassify:
    def test_near_one_threshold_gives_suggestions(self, toy_model):
        store, config, tok, labels, molecules = toy_model
        result = classify_batch(store, config, tok, labels, [molecules[0].smiles],
                                threshold=0.999999)[0]
        assert result.below_threshold
        assert len(result.top_k) == 3
        probs = [p for _, p in result.top_k]
        assert probs == sorted(probs, reverse=True)

    def test_overfit_model_recovers_training_labels(self, toy_model):
        store, config, tok, labels, molecules = toy_model
        for mol in molecules[:6]:
            result = classify_batch(store, config, tok, labels, [mol.smiles], threshold=0.5)[0]
            expected = {labels.classes[j] for j in range(3) if mol.labels[j]}
            assert set(result.accepted) == expected

    def test_threshold_bounds(self, toy_model):
        store, config, tok, labels, _ = toy_model
        for threshold in (0.0, 1.0):  # 0 would accept every label for every query
            with pytest.raises(ExtensionError):
                classify_batch(store, config, tok, labels, ["CC"], threshold=threshold)

    def test_label_width_check(self, toy_model):
        store, config, tok, _, _ = toy_model
        with pytest.raises(DatasetError, match="label index has 1 classes, model expects 3"):
            classify_batch(store, config, tok, LabelIndex(("A",)), ["CC"])

    def test_overlong_input_truncated_with_flag(self, toy_model):
        store, config, tok, labels, _ = toy_model
        result = classify_batch(store, config, tok, labels, ["C" * 100], threshold=0.5)[0]
        assert result.truncated


def family_graph():
    return make_graph({
        "T:ROOT": {},
        "T:A": {"parents": ["T:ROOT"]},
        "T:A1": {"parents": ["T:A"]},
        "T:B": {"parents": ["T:ROOT"]},
        "T:L1": {"parents": ["T:A1"], "smiles": "CN"},
    })


def result_for(accepted, labels, smiles="CC", probs=None):
    p = np.zeros(len(labels)) if probs is None else np.asarray(probs)
    for cid in accepted:
        p[labels.column(cid)] = max(p[labels.column(cid)], 0.9)
    return ClassificationResult(
        smiles=smiles, probabilities=p, accepted=list(accepted),
        below_threshold=not accepted,
        top_k=[(labels.classes[0], float(p[0]))],
    )


class TestPropose:
    def labels(self):
        return LabelIndex(("T:A", "T:A1", "T:B"))

    def test_most_specific_survives(self):
        graph = family_graph()
        labels = self.labels()
        # oracle: T:A is an ancestor of T:A1, so only T:A1 may survive
        assert "T:A" in graph.ancestors("T:A1")
        proposals, skipped = propose_extensions(
            graph, labels, [result_for(["T:A", "T:A1"], labels)]
        )
        assert len(proposals) == 1
        assert [cid for cid, _ in proposals[0].superclasses] == ["T:A1"]
        assert not skipped

    def test_prune_helper_on_unrelated_classes(self):
        graph = family_graph()
        kept = prune_to_most_specific(graph, ["T:A1", "T:B"])
        assert set(kept) == {"T:A1", "T:B"}

    def test_prune_asks_each_class_once_and_keeps_the_same_list(self, monkeypatch):
        graph = family_graph()
        calls = []
        ancestors = OntologyGraph.ancestors

        def counted(self, class_id):
            calls.append(class_id)
            return ancestors(self, class_id)

        cases = [
            ["T:A", "T:A1", "T:B"], ["T:A1", "T:A", "T:ROOT", "T:L1"], ["T:B"],
            ["T:ROOT", "T:B", "T:A"], [], ["T:L1", "T:A1", "T:A1"],
        ]
        expected = [obo_oracle.prune_to_most_specific(graph, acc) for acc in cases]
        monkeypatch.setattr(OntologyGraph, "ancestors", counted)
        for accepted, kept in zip(cases, expected):
            calls.clear()
            assert prune_to_most_specific(graph, accepted) == kept
            assert calls == list(dict.fromkeys(accepted))
        assert expected[1] == ["T:L1"] and expected[3] == ["T:B", "T:A"]

    def test_prune_work_repeats_under_any_hash_seed(self):
        script = (
            "from ontograft.ontology import OntologyGraph, OntologyClass\n"
            "from ontograft.extension import prune_to_most_specific\n"
            "ids = [f'C:{i}' for i in range(40)]\n"
            "g = OntologyGraph({c: OntologyClass(id=c, parents=frozenset(ids[:i][-2:]))"
            " for i, c in enumerate(ids)})\n"
            "calls = []\n"
            "anc = OntologyGraph.ancestors\n"
            "OntologyGraph.ancestors = lambda self, c: calls.append(c) or anc(self, c)\n"
            "kept = prune_to_most_specific(g, ids[::3] + ids[1::7])\n"
            "print(kept, calls)\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
            outputs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(outputs) == 1

    def test_all_below_threshold(self):
        graph = family_graph()
        labels = self.labels()
        proposals, skipped = propose_extensions(
            graph, labels, [result_for([], labels)]
        )
        assert proposals == []
        assert len(skipped) == 1

    def test_two_disjoint_results_two_proposals(self):
        graph = family_graph()
        labels = self.labels()
        proposals, _ = propose_extensions(
            graph, labels,
            [result_for(["T:A1"], labels, smiles="CC"),
             result_for(["T:B"], labels, smiles="CN")],
        )
        assert len(proposals) == 2
        assert proposals[0].new_id != proposals[1].new_id

    def test_fresh_ids_start_past_max_numeric(self):
        graph = make_graph({"CHEBI:000777": {}})
        allocator = FreshIdAllocator(graph, prefix="NEW:", width=6)
        assert allocator.allocate() == "NEW:000778"
        assert allocator.allocate() == "NEW:000779"

    # ASCII and other Unicode Nd digits, a superscript digit (No, not Nd),
    # newline (which ``$`` may skip once at the end) and NUL (the separator
    # of the one scan over the joined ids)
    @settings(max_examples=300, deadline=None)
    @given(ids=st.sets(st.text(st.sampled_from(
        ["0", "9", "X", ":", "\n", "\0", "\u0663", "\u07c1", "\U0001d7d7", "\uff15", "\u00b2"]),
        min_size=1, max_size=6), max_size=8))
    @example(ids={"A:12\n", "B:70\n\n", "C:3\n4", "D:\u0663\u0664", "E:\u00b29"})
    @example(ids={"A:12\n", "B:7\0", "C:88\01"})
    def test_fresh_ids_follow_the_per_id_rule(self, ids):
        graph = OntologyGraph({cid: OntologyClass(id=cid) for cid in ids})
        assert FreshIdAllocator(graph, prefix="N:", width=1).allocate() == (
            f"N:{obo_oracle.first_fresh_number(graph)}")

    def test_name_defaults_to_smiles(self):
        graph = family_graph()
        labels = self.labels()
        proposals, _ = propose_extensions(
            graph, labels, [result_for(["T:B"], labels, smiles="CCBr")]
        )
        assert proposals[0].name == "CCBr"
        assert proposals[0].smiles == "CCBr"

    def test_unknown_label_rejected(self):
        graph = family_graph()
        with pytest.raises(UnknownClassError):
            propose_extensions(graph, LabelIndex(("T:MISSING",)), [])


class TestExtend:
    def proposal(self, new_id="NEW:000001", supers=(("T:A1", 0.9),)):
        return ExtensionProposal(
            new_id=new_id, name="CC", smiles="CC", superclasses=list(supers)
        )

    def test_empty_proposals_identity(self):
        graph = family_graph()
        out, report = extend(graph, [])
        assert out == graph
        assert report.added == [] and report.below_threshold == []

    def test_adds_leaves_and_preserves_prior_graph(self):
        graph = family_graph()
        out, report = extend(graph, [self.proposal()])
        assert len(out) == len(graph) + 1
        assert out.is_leaf("NEW:000001")
        for cid in graph.ids():
            assert out[cid] == graph[cid]
        assert report.added[0]["edges"] == [{"superclass": "T:A1", "confidence": 0.9}]

    def test_unknown_superclass(self):
        graph = family_graph()
        with pytest.raises(UnknownClassError):
            extend(graph, [self.proposal(supers=(("T:GONE", 0.9),))])

    def test_rerun_same_proposals_rejected(self):
        graph = family_graph()
        out, _ = extend(graph, [self.proposal()])
        with pytest.raises(DuplicateIdError):
            extend(out, [self.proposal()])

    def test_report_json_shape(self):
        graph = family_graph()
        labels = LabelIndex(("T:A", "T:A1", "T:B"))
        below = result_for([], labels, smiles="CCCC")
        _, report = extend(graph, [self.proposal()], [below])
        doc = json.loads(report.to_json())
        assert doc["added"][0]["new_id"] == "NEW:000001"
        assert doc["below_threshold"][0]["smiles"] == "CCCC"
        assert doc["below_threshold"][0]["suggestions"]

    def test_edge_comments_in_serialized_obo(self):
        graph = family_graph()
        proposals = [self.proposal()]
        out, _ = extend(graph, proposals)
        text = serialize_obo(out, edge_comments=edge_comment_map(proposals))
        assert "is_a: T:A1 ! confidence=0.9000" in text
