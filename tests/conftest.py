import json
import struct

import numpy as np
import pytest
from hypothesis import settings

from ontograft.model import ModelConfig, init_model
from ontograft.ontology import OntologyClass, OntologyGraph

# Every run draws the same examples: a hash of each test seeds its draws and
# no example database is read, so a failing draw fails the change that made
# it, not a later run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def tiny_config():
    # the shape pinned by the gradient-check acceptance criterion
    return ModelConfig(
        vocab_size=20, n_labels=3, n_layers=2, n_heads=2,
        hidden_dim=8, ffn_dim=16, max_len=12, seed=7,
    )


@pytest.fixture
def tiny_store(tiny_config):
    return init_model(tiny_config)


class WholeGradient:
    """An optimizer for ``loss_and_grad`` that keeps the whole gradient and
    changes no parameter: ``grads`` are views of one arena laid out like the
    store's, and ``update`` does nothing."""

    def __init__(self, store):
        self.arena = np.zeros_like(store.param_arena)
        self.grads = store.views(self.arena)

    def update(self, store, group):
        pass


def with_config_keys(blob: bytes, **keys) -> bytes:
    """A model file's bytes with ``keys`` added to its config JSON (sorted
    keys, as ``save_model`` writes it): how a file saved when ``ModelConfig``
    had those fields looks."""
    (cfg_len,) = struct.unpack_from("<I", blob, 12)  # after magic and version
    cfg = json.loads(blob[16:16 + cfg_len])
    new = json.dumps({**cfg, **keys}, sort_keys=True).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(new)) + new + blob[16 + cfg_len:]


def make_graph(spec: dict[str, dict]) -> OntologyGraph:
    """Graph from {id: {parents, smiles, name, obsolete}} dictionaries."""
    classes = {}
    for cid, fields in spec.items():
        classes[cid] = OntologyClass(
            id=cid,
            name=fields.get("name", cid),
            smiles=fields.get("smiles"),
            parents=frozenset(fields.get("parents", ())),
            obsolete=fields.get("obsolete", False),
        )
    return OntologyGraph(classes)


def random_dag(
    rng: np.random.Generator,
    n_classes: int,
    smiles_fraction: float = 0.5,
    obsolete_fraction: float = 0.0,
):
    """Random acyclic hierarchy: each class picks parents among earlier ones.
    With obsolete_fraction > 0, that share of classes is marked obsolete."""
    spec = {"N000": {}}
    for i in range(1, n_classes):
        n_parents = int(rng.integers(1, min(3, i) + 1))
        parents = rng.choice(i, size=n_parents, replace=False)
        entry = {"parents": [f"N{p:03d}" for p in parents]}
        if rng.random() < smiles_fraction:
            entry["smiles"] = "C" * (i + 1)
        if obsolete_fraction and rng.random() < obsolete_fraction:
            entry["obsolete"] = True
        spec[f"N{i:03d}"] = entry
    return make_graph(spec)
