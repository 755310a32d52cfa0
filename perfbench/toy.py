"""The ``toy-pipeline`` workload: the README's desk-scale pipeline, each of
the eight CLI stages in a fresh process, one after the other.

Inputs: the synthetic toy ontology (seed 3, 400 leaves) and the README's
``toy.ini``, as a user would run them; the README's two queries are
replaced by generated toy molecules that are not in the ontology, drawn from
the workload seed.  The fine-tuning stage also writes checkpoints
(``--checkpoint-dir``), so that path runs at toy shape too.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

TOY_INI = """[run]
seed = 3

[dataset]
n_label_classes = 18
min_members = {min_members}

[tokenizer]
target_vocab = 40
max_len = 96

[model]
n_layers = 2
n_heads = 4
hidden_dim = 32
ffn_dim = 64

[training]
pretrain_epochs = {pretrain_epochs}
finetune_epochs = {finetune_epochs}
"""
SHAPES = {
    "full": {"pretrain_epochs": 30, "finetune_epochs": 100, "queries": 256, "explain": 64},
    "smoke": {"pretrain_epochs": 1, "finetune_epochs": 2, "queries": 16, "explain": 4},
}
MIN_MICRO_F1 = 0.90
MIN_MEMBERS = 50
# After the pipeline, one process calls each stage but training REPEATS
# times, round-robin, and the harness takes each stage's median call.  Those
# stages take milliseconds, and on a shared two-core machine the speed
# drifted by up to 1.5x within seconds; round-robin spreads every stage's
# calls evenly over the same several seconds, so that all of them see the
# same mix of fast and slow spells.  Every repeated call writes its outputs
# into a directory of its own, as the pipeline's calls do: on ext4, writing
# over an existing file (by rename or truncation) starts writing the new
# data to disk at once, and on a shared two-core VM's disk that wait varied
# fourfold from call to call (see the README).
REPEATED = ("evaluate", "build-dataset", "classify", "train-tokenizer", "explain", "extend")
REPEATS = 12


def prepare(out_dir: str, seed: int, smoke: bool) -> dict:
    import numpy as np

    from common import write_lines
    from gen import STRUCTURE_SEED
    from ontograft.ontology import save_obo
    from ontograft.synthetic import (
        ATOM_FAMILIES, PATTERN_MOTIFS, SCAFFOLDS, generate_toy_ontology, motif_block,
    )

    shape = SHAPES["smoke" if smoke else "full"]
    graph = generate_toy_ontology(seed=3, n_leaves=400)
    save_obo(graph, os.path.join(out_dir, "toy.obo"))
    with open(os.path.join(out_dir, "toy.ini"), "w", encoding="utf-8") as fh:
        fh.write(TOY_INI.format(min_members=MIN_MEMBERS, **shape))
    motifs = [m for members in ATOM_FAMILIES.values() for m in members.values()]
    motifs += list(PATTERN_MOTIFS.values())
    known = {graph[cid].smiles for cid in graph.ids() if graph[cid].smiles}
    # The shape of each query (carbon run lengths, number of motifs,
    # scaffold) is the same for every seed, so that the token counts and
    # batch shapes repeat; the seed picks the motifs.
    shape_rng = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng([seed, 3])
    ends = {"arene": "c1ccccc1", "alkene": "=C", "alkane": ""}
    queries: list[str] = []
    while len(queries) < shape["queries"]:
        runs = shape_rng.integers(1, 9, size=4)
        n_motifs = int(shape_rng.integers(1, 4))
        scaffold = SCAFFOLDS[int(shape_rng.integers(len(SCAFFOLDS)))]
        picks = sorted(rng.choice(len(motifs), size=n_motifs, replace=False).tolist())
        parts = ["C" * int(runs[0])]
        for n, i in enumerate(picks, start=1):
            parts += [motif_block(motifs[i]), "C" * int(runs[n])]
        smiles = "".join(parts) + ends[scaffold]
        if smiles not in known:
            known.add(smiles)
            queries.append(smiles)
    write_lines(os.path.join(out_dir, "queries.smi"), queries)
    write_lines(os.path.join(out_dir, "explain.smi"), queries[: shape["explain"]])
    return {"n_queries": len(queries), "n_explain": shape["explain"]}


def stage_arguments(inputs: str, out: str = "") -> list[tuple[str, list[str]]]:
    """The README's commands, with inputs taken from ``inputs``; paths are
    relative to the work directory.  ``out`` moves every output into that
    subdirectory; the later stages still read the pipeline's dataset,
    tokenizer and model."""
    cfg = ["--config", os.path.join(inputs, "toy.ini")]
    obo = os.path.join(inputs, "toy.obo")
    model = ["--model", "model.bin", "--tokenizer", "tok.txt", "--labels", "data/labels.txt"]
    data = os.path.join(out, "data")
    return [
        ("build-dataset", cfg + ["--ontology", obo, "--out", data]),
        ("train-tokenizer", cfg + [
            "--input", os.path.join(data, "train.tsv"), "--out", os.path.join(out, "tok.txt"),
        ]),
        ("pretrain", cfg + [
            "--tokenizer", "tok.txt", "--train", "data/train.tsv",
            "--validation", "data/validation.tsv", "--labels", "data/labels.txt",
            "--out", "pretrained.bin", "--batch-size", "4", "--learning-rate", "5e-4",
        ]),
        ("finetune", cfg + [
            "--model", "pretrained.bin", "--tokenizer", "tok.txt", "--dataset", "data",
            "--out", "model.bin", "--batch-size", "8", "--learning-rate", "7e-3",
            "--checkpoint-dir", "checkpoints",
        ]),
        ("evaluate", cfg + model[:4] + [
            "--test", "data/test.tsv", "--labels", "data/labels.txt", "--out", os.path.join(out, "eval"),
        ]),
        ("classify", cfg + model + [
            "--input", os.path.join(inputs, "queries.smi"), "--out", os.path.join(out, "results.json"),
        ]),
        ("explain", cfg + model + [
            "--input", os.path.join(inputs, "explain.smi"), "--out", os.path.join(out, "explain"),
        ]),
        ("extend", cfg + model + [
            "--ontology", obo, "--input", os.path.join(inputs, "queries.smi"),
            "--out-ontology", os.path.join(out, "extended.obo"),
            "--out-report", os.path.join(out, "changes.json"),
        ]),
    ]


def repeat_directories() -> list[str]:
    return [f"repeat-{k:02d}" for k in range(REPEATS)]


def run_stages(inputs: str, work: str, env: dict, trace_prefix: str,
               once: bool) -> tuple[dict, list[dict]]:
    """Run the eight stages in order, each in a fresh process that calls
    ``cli.main`` once, stopping at the first that fails.  Unless ``once``,
    one more process then calls every stage but training ``REPEATS`` times,
    round-robin, each call writing into its own directory.  Returns stage name -> its pipeline process's result, and
    the list of repeat-process results."""
    arguments = dict(stage_arguments(inputs))
    stages: dict[str, dict] = {}
    for name, args in arguments.items():
        result = _stage_process(work, env, f"stage-{name}", [[name, *args]],
                                f"{trace_prefix}-{name}" if trace_prefix else "")
        stages[name] = result
        if result["code"] != 0:
            return stages, []
    if once:
        return stages, []
    groups = []
    for out in repeat_directories():
        repeated = dict(stage_arguments(inputs, out))
        groups += [[name, *repeated[name]] for name in REPEATED]
    return stages, [_stage_process(work, env, "repeat", groups, "")]


def _stage_process(work: str, env: dict, label: str, groups: list[list[str]],
                   trace_id: str) -> dict:
    from common import read_json

    out = os.path.join(work, f"{label}.json")
    own = ["--out", out]
    if trace_id:
        own += ["--trace-id", trace_id]
    command = [sys.executable, os.path.join(HERE, "stage.py"), *own]
    for args in groups:
        command += ["--", *args]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0 or not os.path.exists(out):
        return {"code": proc.returncode or 1, "wall_s": wall, "calls": [],
                "stderr": proc.stderr[-2000:]}
    return dict(read_json(out), wall_s=wall)


def check_outputs(inputs: str, work: str, stages: dict, repeats: list[dict], smoke: bool,
                  seed: int, ledger, checks) -> float | None:
    """Output checks; returns the test micro F1 when evaluate ran."""
    import json

    from common import check_grafts, read_lines, sha256_file
    from ontograft.ontology import load_obo

    for name, _ in stage_arguments(inputs):
        run = stages.get(name, {"code": None})
        checks.add(f"toy.{name}.exit_0", run["code"] == 0, run.get("stderr", "")[-300:])
    for run in repeats:
        checks.add("toy.repeated_stages.exit_0", run["code"] == 0, run.get("stderr", "")[-300:])
    if len(stages) < 8 or any(run["code"] != 0 for run in [*stages.values(), *repeats]):
        return None
    with open(os.path.join(work, "eval", "report.json"), encoding="utf-8") as fh:
        micro = json.load(fh)["metrics"]["micro"]["f1"]
    if not smoke:
        checks.add("toy.test_micro_f1", micro >= MIN_MICRO_F1, f"{micro:.4f} >= {MIN_MICRO_F1}")
    kind = "smoke" if smoke else "full"
    # model.bin and report.json do not depend on the queries, so every seed
    # must reproduce them; extended.obo does.
    for artifact, key in (
        ("model.bin", f"toy.{kind}.model.bin"),
        (os.path.join("eval", "report.json"), f"toy.{kind}.report.json"),
        ("extended.obo", f"toy.{kind}.seed{seed}.extended.obo"),
    ):
        checks.run(f"toy.stable_sha256.{os.path.basename(artifact)}",
                   lambda a=artifact, k=key: ledger.check(k, sha256_file(os.path.join(work, a))))
    if repeats:
        produced = [os.path.join("data", name) for name in sorted(os.listdir(os.path.join(work, "data")))]
        produced.append("tok.txt")
        same = [sha256_file(os.path.join(work, f)) == sha256_file(os.path.join(work, out, f))
                for out in repeat_directories() for f in produced]
        checks.add("toy.repeated_stages_reproduce", all(same),
                   f"{sum(same)} of {len(same)} repeated build-dataset/train-tokenizer files identical")
    with open(os.path.join(work, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    queries = read_lines(os.path.join(inputs, "queries.smi"))
    checks.add("toy.classified_all", [r["smiles"] for r in results] == queries,
               f"{len(results)} of {len(queries)}")
    accepted = {r["smiles"]: [a["label"] for a in r["accepted"]] for r in results}
    checks.run("toy.grafts_most_specific", lambda: check_grafts(
        load_obo(os.path.join(inputs, "toy.obo")), load_obo(os.path.join(work, "extended.obo")), accepted))
    n_pages = len([f for f in os.listdir(os.path.join(work, "explain")) if f.endswith(".html")])
    n_explain = len(read_lines(os.path.join(inputs, "explain.smi")))
    checks.add("toy.explain_pages", n_pages == n_explain, f"{n_pages} of {n_explain}")
    return micro


def train_tokens(inputs: str, work: str, smoke: bool) -> int:
    """Non-pad tokens the two training stages push through the model: each
    training-split molecule once per epoch."""
    from ontograft.dataset import load_split_tsv
    from ontograft.tokenizer import Tokenizer

    shape = SHAPES["smoke" if smoke else "full"]
    tok = Tokenizer.load(os.path.join(work, "tok.txt"))
    molecules, _ = load_split_tsv(os.path.join(work, "data", "train.tsv"))
    per_epoch = sum(len(tok.encode(m.smiles)) for m in molecules)
    return per_epoch * (shape["pretrain_epochs"] + shape["finetune_epochs"])
