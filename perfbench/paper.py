"""The ``paper`` workload: the eight pipeline stages at the paper's shape,
called as library functions in two processes (training, then curation).

``prepare`` (run by the harness) writes the seeded inputs; running this file
as a script is the worker, which sets up, runs the stages one after the
other (closed loop: each call starts when the previous one returned), checks
their outputs and writes a result JSON.  Shapes:

* ontology: ~33k classes, 30k structured leaves (see ``gen``);
* model: 6 layers x 12 heads x 768/3072, vocabulary 1,395, 500 labels,
  batch 4; float64 for training, a float32 model with fixed seeded weights
  for inference;
* build-dataset picks ``label_k`` labels, sized so the stage takes seconds;
* pretrain and fine-tune each run one epoch, two batches of 4 molecules
  of 20-48 tokens (so that steady steps, not the first step's one-off
  costs, dominate), with 4 validation molecules, and the fine-tuned model is
  saved, as the CLI does; the harness reloads it after the worker exits (so
  the check does not count in the worker's memory).  No
  ``checkpoint_dir``: one epoch writes two checkpoints of 1.08 GB
  (parameters and Adam moments), which took about 6 s per run, raised peak
  memory from about 1.9 GB to 3.5 GB and left 2.2 GB of writes per run to
  the disk; ``toy-pipeline`` exercises the checkpoint path instead;
* evaluate scores a 600 x 500 matrix (500 labels as in the paper's
  test split, 600 of its 6,569 rows, so that four calls fit the run);
* classify runs 6 queries of 20-200 tokens at the CLI batch size (4),
  explain 5 queries, and extend grafts the classified queries.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))

SHAPES = {
    "full": {
        "sizes": "PAPER_SIZES", "label_k": 3, "min_members": 20,
        "tokenizer_corpus": 500, "vocab": 1395, "max_len": 512,
        "model": {"n_layers": 6, "n_heads": 12, "hidden_dim": 768, "ffn_dim": 3072},
        "train_lengths": [20, 24, 28, 32, 36, 40, 44, 48],
        "val_lengths": [24, 36, 48, 56],
        "query_count": 6, "query_min": 20, "query_max": 200,
        "explain_lengths": [30, 55, 80, 105, 130],
        "eval_rows": 600, "setup_repeats": 3, "inference_bias": -1.4,
    },
    "smoke": {
        "sizes": "SMOKE_SIZES", "label_k": 3, "min_members": 20,
        "tokenizer_corpus": 150, "vocab": 200, "max_len": 128,
        "model": {"n_layers": 2, "n_heads": 4, "hidden_dim": 32, "ffn_dim": 64},
        "train_lengths": [12, 16, 20, 24],
        "val_lengths": [14, 18],
        "query_count": 8, "query_min": 10, "query_max": 60,
        "explain_lengths": [12, 20],
        "eval_rows": 300, "setup_repeats": 3, "inference_bias": -0.15,
    },
}
# The stages run in two processes, one after the other, as the curator's
# training run and a later curation run would: training frees gigabytes
# that the curation stages would otherwise run among.
PARTS = ("train", "curate")
CONFIG_SEED = 3  # the run's [run] seed: fixed, so only the inputs vary
THRESHOLD = 0.5
BATCH_SIZE = 4
RATIOS = (0.7, 0.09, 0.21)
# Stages that take well under a second repeat; the median call is reported.
STAGE_REPEATS = {"extend": 2}


def _query_lengths(shape) -> list[int]:
    """Evenly spread lengths in a fixed interleaved order, so that every
    batch mixes long and short queries the same way for every seed."""
    import numpy as np

    n = shape["query_count"]
    lengths = np.linspace(shape["query_min"], shape["query_max"], n).round().astype(int)
    order = np.random.default_rng(0).permutation(n)
    return [int(lengths[i]) for i in order]


def prepare(out_dir: str, seed: int, smoke: bool) -> dict:
    """Write the workload's inputs for ``seed``; return its metadata."""
    import numpy as np

    import gen
    from common import upward, write_json, write_lines
    from ontograft import dataset, model, tokenizer

    shape = SHAPES["smoke" if smoke else "full"]
    rng = np.random.default_rng([seed, 2])
    onto = gen.PaperOntology(seed, getattr(gen, shape["sizes"]))
    with open(os.path.join(out_dir, "ontology.obo"), "w", encoding="utf-8") as fh:
        fh.write(onto.obo_text())
    leaves = list(onto.leaf_smiles.values())
    picks = rng.choice(len(leaves), size=shape["tokenizer_corpus"], replace=False)
    corpus = [leaves[i] for i in sorted(picks)]
    write_lines(os.path.join(out_dir, "tokenizer_corpus.smi"), corpus)
    tok = tokenizer.train_bpe(corpus, shape["vocab"], max_len=shape["max_len"])
    tok.save(os.path.join(out_dir, "tokenizer.txt"))

    known = set(leaves)

    def make(n_filler):
        return onto.random_molecule(rng, n_filler)

    def molecules(lengths):
        return [gen.fit_length(tok, make, n, known) for n in lengths]

    pretrain_corpus = molecules(shape["train_lengths"])
    write_lines(os.path.join(out_dir, "pretrain_train.smi"), pretrain_corpus)
    write_lines(os.path.join(out_dir, "pretrain_val.smi"), molecules(shape["val_lengths"]))

    labels = dataset.LabelIndex(onto.labels)
    label_set = set(onto.labels)

    def labeled(lengths):
        out = []
        for n in lengths:
            picks = rng.integers(len(onto.low), size=int(rng.integers(1, 4)))
            classes = sorted({onto.low[int(i)] for i in picks})
            smiles = gen.fit_length(tok, lambda k: onto.molecule(rng, classes, k), n, known)
            vec = np.zeros(len(labels), dtype=np.int8)
            above = set().union(*(upward(lambda c: onto.parents.get(c, []), c) for c in classes))
            for cid in above & label_set:
                vec[labels.column(cid)] = 1
            out.append(dataset.LabeledMolecule(smiles, vec))
        return out

    splits = dataset.DatasetSplits(
        train=labeled(shape["train_lengths"]),
        validation=labeled(shape["val_lengths"]),
        test=labeled(shape["val_lengths"]),
    )
    dataset.save_tsv(splits, labels, os.path.join(out_dir, "finetune_data"))
    write_lines(os.path.join(out_dir, "queries.smi"), molecules(_query_lengths(shape)))
    write_lines(os.path.join(out_dir, "explain.smi"), molecules(shape["explain_lengths"]))

    y_true, y_score = gen.score_matrix(seed, shape["eval_rows"], len(labels))
    np.savez(os.path.join(out_dir, "scores.npz"), y_true=y_true, y_score=y_score)

    # The inference model's weights do not depend on the workload seed; it
    # is written by the program under test on every run.
    cfg = model.ModelConfig(
        vocab_size=len(tok.vocab), n_labels=len(labels), max_len=tok.max_len,
        dtype="float32", seed=CONFIG_SEED, **shape["model"],
    )
    store = model.init_model(cfg)
    # a few accepted labels per query, as from a trained model, rather
    # than the half that a zero bias gives
    store.params["cls.b"][...] = shape["inference_bias"]
    model.save_model(store, cfg, os.path.join(out_dir, "inference_model.bin"))
    del store
    # one pretraining and one fine-tuning epoch
    train_tokens = sum(
        len(tok.encode(s)) for s in pretrain_corpus + [m.smiles for m in splits.train]
    )
    meta = {
        "seed": seed, "smoke": smoke, "vocab": len(tok.vocab),
        "train_tokens": train_tokens, "n_queries": shape["query_count"],
        "n_explain": len(shape["explain_lengths"]),
    }
    write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


def params_digest(store) -> str:
    digest = hashlib.sha256()
    for name, array in store.params.items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class Worker:
    """Runs the stages; with a recorder, inside trace spans."""

    def __init__(self, inputs: str, work: str, smoke: bool, recorder, import_s: float,
                 once: bool):
        import numpy as np

        from common import Checks, read_json

        self.np = np
        self.inputs = inputs
        self.work = work
        self.shape = SHAPES["smoke" if smoke else "full"]
        self.meta = read_json(os.path.join(inputs, "meta.json"))
        self.recorder = recorder
        self.checks = Checks()
        self.stage_s: dict[str, float] = {}
        self.stage_calls: dict[str, list[float]] = {}
        self.stage_failed: list[str] = []
        self.import_s = import_s
        self.once = once
        self.hashes: dict[str, str] = {}
        self.out_dirs: dict[str, str] = {}

    def path(self, *parts) -> str:
        return os.path.join(self.inputs, *parts)

    def out(self, *parts) -> str:
        """A path in the output directory of the stage call running now."""
        return os.path.join(self.out_dir, *parts)

    def output_of(self, stage: str, *parts) -> str:
        """A path in the output directory of ``stage``'s last call."""
        return os.path.join(self.out_dirs[stage], *parts)

    def stage(self, name: str, fn) -> bool:
        """Run a stage ``STAGE_REPEATS`` times (once with ``--once`` or when
        traced); its time is the median over all its calls so far.  Each
        call writes into a directory of its own, as a fresh CLI run would:
        on ext4, writing over an existing file starts writing its data to
        disk at once, and that wait varies widely on a shared disk."""
        from common import median

        repeats = 1 if self.once else STAGE_REPEATS.get(name, 1)
        times = self.stage_calls.setdefault(name, [])
        try:
            for _ in range(repeats):
                self.out_dir = os.path.join(self.work, f"{name}-{len(times)}")
                os.makedirs(self.out_dir)
                self.out_dirs[name] = self.out_dir
                # start each call from the same collector state, with every
                # earlier call's files on disk (see the README)
                gc.collect()
                os.sync()
                started = time.perf_counter()
                with self.recorder.span(f"stage.{name}") if self.recorder else nullcontext():
                    fn()
                times.append(time.perf_counter() - started)
        except Exception as exc:  # a failed stage is reported, not raised
            import traceback

            traceback.print_exc()
            self.stage_failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        self.stage_s[name] = median(times)
        return True

    def paused(self):
        return self.recorder.paused() if self.recorder is not None else nullcontext()

    # -- set-up ------------------------------------------------------------

    def setup(self, part: str, repeats: int) -> None:
        """Load or create what the part's stages need, ``repeats`` times;
        the objects of the last repetition are used."""
        from ontograft import model, ontology, tokenizer

        self.train_cfg = model.ModelConfig(
            vocab_size=self.meta["vocab"], n_labels=len(self.read_labels()),
            max_len=self.shape["max_len"], seed=CONFIG_SEED, **self.shape["model"],
        )
        loaders = [
            ("load_obo", "graph", lambda: ontology.load_obo(self.path("ontology.obo"))),
            ("tokenizer_load", "tok", lambda: tokenizer.Tokenizer.load(self.path("tokenizer.txt"))),
        ]
        if part == "train":
            loaders.append(("init_model", "store", lambda: model.init_model(self.train_cfg)))
        else:
            loaders.append(("load_model", "inference",
                            lambda: model.load_model(self.path("inference_model.bin"))))
        runs = []
        for _ in range(repeats):
            timings = {}
            for name, attribute, load in loaders:
                setattr(self, attribute, None)
                gc.collect()
                started = time.perf_counter()
                setattr(self, attribute, load())
                timings[name] = time.perf_counter() - started
            runs.append(timings)
        self.setup_runs = runs

    def read_labels(self):
        from ontograft import dataset

        return dataset.load_labels(self.path("finetune_data", "labels.txt"))

    # -- stages ------------------------------------------------------------

    def build_dataset(self) -> None:
        from ontograft import dataset

        labels = dataset.select_label_classes(
            self.graph, self.shape["label_k"], self.shape["min_members"], CONFIG_SEED
        )
        molecules, _ = dataset.build_dataset(self.graph, labels)
        splits = dataset.split_dataset(molecules, RATIOS, CONFIG_SEED)
        dataset.save_tsv(splits, labels, self.out("dataset"))

    def train_tokenizer(self) -> None:
        from common import read_lines
        from ontograft import tokenizer

        corpus = read_lines(self.path("tokenizer_corpus.smi"))
        trained = tokenizer.train_bpe(corpus, self.shape["vocab"], max_len=self.shape["max_len"])
        trained.save(self.out("tokenizer.txt"))

    def pretrain(self) -> None:
        from common import read_lines
        from ontograft import training

        policy = training.MaskingPolicy(seed=CONFIG_SEED)
        tcfg = training.TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=CONFIG_SEED)
        self.pretrain_logs = training.pretrain(
            self.store, self.train_cfg, self.tok,
            read_lines(self.path("pretrain_train.smi")),
            read_lines(self.path("pretrain_val.smi")),
            tcfg, policy,
        )

    def finetune(self) -> None:
        from ontograft import dataset, model, training

        splits, _ = dataset.load_tsv(self.path("finetune_data"))
        tcfg = training.TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=CONFIG_SEED)
        self.finetune_logs = training.finetune(
            self.store, self.train_cfg, self.tok, splits, tcfg, threshold=THRESHOLD,
        )
        model.save_model(self.store, self.train_cfg, self.out("model.bin"))

    def evaluate(self) -> None:
        from ontograft import metrics

        y_true, y_score = self.scores
        labels = self.read_labels()
        self.report = metrics.compute_report(y_true, y_score, THRESHOLD)
        y_pred = metrics.binarize(y_score, THRESHOLD)
        class_rows = metrics.per_class_f1_rows(y_true, y_pred, labels)
        molecule_rows = metrics.per_molecule_f1_rows(y_true, y_pred)
        metrics.write_report(self.report, class_rows, molecule_rows, self.out("eval"))

    def classify(self) -> None:
        from ontograft import extension

        store, cfg, _ = self.inference
        self.results = extension.classify_batch(
            store, cfg, self.tok, self.read_labels(), self.queries,
            threshold=THRESHOLD, top_k=3, batch_size=BATCH_SIZE,
        )

    def explain(self) -> None:
        from ontograft import attribution, model

        store, cfg, _ = self.inference
        labels = self.read_labels()
        os.makedirs(self.out("explain"))
        self.attributions = []
        for i, smiles in enumerate(self.explain_smiles):
            seq = self.tok.encode(smiles, truncate=True)
            output = model.forward(store, cfg, [seq], capture_attention=True)[0]
            attrib = attribution.token_importance(output.attention, seq, self.tok)
            shares = attribution.head_token_share(output.attention, seq, self.tok)
            predictions = sorted(
                (
                    (labels.classes[j], float(output.probabilities[j]))
                    for j in range(len(labels))
                    if output.probabilities[j] >= THRESHOLD
                ),
                key=lambda item: (-item[1], item[0]),
            )
            page = attribution.render_report(smiles, attrib, shares, predictions, THRESHOLD)
            with open(self.out("explain", f"explain_{i:04d}.html"), "w", encoding="utf-8") as fh:
                fh.write(page)
            self.attributions.append((attrib, shares))

    def extend(self) -> None:
        from ontograft import extension, ontology

        proposals, skipped = extension.propose_extensions(self.graph, self.read_labels(), self.results)
        self.extended, report = extension.extend(self.graph, proposals, skipped)
        ontology.save_obo(
            self.extended, self.out("extended.obo"),
            edge_comments=extension.edge_comment_map(proposals),
        )
        with open(self.out("changes.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())

    # -- checks ------------------------------------------------------------

    def check_training(self) -> None:
        np = self.np
        from common import sha256_file

        logs = self.pretrain_logs + self.finetune_logs
        self.checks.add(
            "paper.losses_finite",
            bool(logs) and all(np.isfinite([l.train_loss, l.val_loss]).all() for l in logs),
            f"{[(l.phase, round(l.train_loss, 4)) for l in logs]}",
        )
        self.hashes["paper.final_parameters"] = params_digest(self.store)
        for name in ("labels.txt", "train.tsv", "validation.tsv", "test.tsv"):
            self.hashes[f"paper.dataset.{name}"] = sha256_file(
                self.output_of("build-dataset", "dataset", name))
        expected = sha256_file(self.path("tokenizer.txt"))
        got = sha256_file(self.output_of("train-tokenizer", "tokenizer.txt"))
        self.checks.add(
            "paper.tokenizer_reproduced", expected == got,
            f"vocabulary {self.meta['vocab']}, trained file matches the prepared one: {expected == got}",
        )

    def check_evaluate(self) -> None:
        np = self.np
        y_true, y_score = self.scores
        pred = y_score >= THRESHOLD
        truth = y_true.astype(bool)
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = int((~pred & truth).sum())
        micro = 2 * tp / (2 * tp + fp + fn)
        got = self.report.values["micro"]["f1"]
        self.checks.add(
            "paper.micro_f1_recomputed", abs(got - micro) < 1e-12 and np.isfinite(got),
            f"report {got:.6f}, recomputed {micro:.6f}",
        )

    def check_classify(self) -> None:
        np = self.np
        from ontograft import model

        store, cfg, _ = self.inference
        sample = [0, len(self.queries) // 2, len(self.queries) - 1]

        def single_sequence():
            worst = 0.0
            for i in sample:
                seq = self.tok.encode(self.queries[i], truncate=True)
                alone = model.forward(store, cfg, [seq])[0].probabilities
                worst = max(worst, float(np.abs(alone - self.results[i].probabilities).max()))
            return worst <= 1e-5, f"max |batch - single| = {worst:.2e} over {len(sample)} queries"

        self.checks.run("paper.batch_equals_single", single_sequence)

    def check_explain(self) -> None:
        np = self.np
        ok = all(
            abs(float(a.scores.sum()) - 1.0) < 1e-6 and np.allclose(s.matrix.sum(axis=1), 100.0)
            for a, s in self.attributions
        )
        self.checks.add("paper.explain_normalized", ok, f"{len(self.attributions)} reports")

    def check_extend(self) -> None:
        from common import check_grafts
        from ontograft import ontology

        def grafts():
            reparsed = ontology.load_obo(self.output_of("extend", "extended.obo"))
            accepted = {r.smiles: r.accepted for r in self.results}
            return check_grafts(self.graph, reparsed, accepted)

        self.checks.run("paper.grafts_most_specific", grafts)

    def run(self, part: str, repeats: int) -> dict:
        from common import read_lines

        np = self.np
        self.setup(part, repeats)
        if part == "train":
            build = ("build-dataset", self.build_dataset, None)
            plan = [
                build,
                ("train-tokenizer", self.train_tokenizer, None),
                ("pretrain", self.pretrain, None),
                ("finetune", self.finetune, self.check_training),
            ]
            if not self.once:
                # build-dataset also runs between and after the training
                # stages, so that its calls spread over the part
                plan[3:3] = [build]
                plan.append(build)
        else:
            with np.load(self.path("scores.npz")) as data:
                self.scores = (data["y_true"], data["y_score"])
            self.queries = read_lines(self.path("queries.smi"))
            self.explain_smiles = read_lines(self.path("explain.smi"))
            evaluate = ("evaluate", self.evaluate, self.check_evaluate)
            classify = ("classify", self.classify, self.check_classify)
            explain = ("explain", self.explain, self.check_explain)
            extend = ("extend", self.extend, self.check_extend)
            # extend grafts what classify returned.  Unless --once, the
            # sequence runs twice, with evaluate and extend twice in each,
            # so that each stage's calls spread over the part instead of
            # sitting together.
            plan = [classify, extend, explain, evaluate]
            if not self.once:
                plan = [classify, extend, evaluate, explain, evaluate, extend] * 2
        checked = set()
        for name, fn, check in plan:
            if not self.stage(name, fn):
                break
            if check is not None and name not in checked:
                checked.add(name)
                with self.paused():
                    try:
                        check()
                    except Exception as exc:
                        self.checks.add(f"paper.{name}.checks", False, f"{type(exc).__name__}: {exc}")
        report = getattr(self, "report", None)
        return {
            "import_s": self.import_s,
            "setup_runs": self.setup_runs,
            "stage_s": self.stage_s,
            "stage_failed": self.stage_failed,
            "checks": self.checks.items,
            "hashes": self.hashes,
            "out_dirs": self.out_dirs,
            "test_micro_f1": report.values["micro"]["f1"] if report is not None else None,
        }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--part", required=True, choices=PARTS)
    parser.add_argument("--trace-id", default="")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--once", action="store_true", help="no repeated set-up or stages")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    import ontograft.cli  # noqa: F401  (the package import counted as set-up)

    import_s = time.perf_counter() - started
    import spans
    import work as work_counts
    from common import peak_rss_mb, write_json

    recorder = None
    if args.trace_id:
        recorder = spans.SpanRecorder(args.trace_id)
        spans.install(recorder, work_counts.HOOKS)
    shape = SHAPES["smoke" if args.smoke else "full"]
    once = args.once or recorder is not None
    worker = Worker(args.inputs, args.work, args.smoke, recorder, import_s, once)
    result = worker.run(args.part, 1 if once else shape["setup_repeats"])
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        result["trace"] = recorder.dump()
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
