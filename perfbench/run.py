"""ontograft benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {toy-pipeline,paper} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from a checkout that holds ``src/ontograft``; the program is imported
from there and nowhere else.  Inputs come from ``--seed``.  Each workload is
one closed-loop client in one process at a time: a stage starts when the
previous one has returned.  BLAS runs with one thread.

A run is one round of the workload, a fixed amount of work that takes
about the ``run_seconds`` of ``BENCHMARK.json`` on a two-core machine;
``--seconds`` is accepted for the runner's interface and does not change
the work.  Short stages are called several times inside the round and
their median call is reported.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one traced
round, each calling every stage once, and reports the per-layer metrics,
with the tracing overhead as the difference between the two.
``--smoke`` shrinks every workload to seconds; it is the benchmark's own
test (correctness checks that need full training are skipped).

Every output check that fails, and every stage that fails, counts in
``failed``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
# One BLAS thread: on two shared cores, two threads ran the paper-shape
# forward pass faster but with twice the run-to-run spread.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)

# name -> (unit, meaning); the same for every workload
END_TO_END = {
    "setup_s": ("s", "package import plus load_obo, Tokenizer.load, load_model, init_model"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload processes"),
    "pipeline_s": ("s", "wall time of the eight stages"),
    "train_s": ("s", "pretrain + finetune"),
    "train_tokens_per_s": ("tok/s", "non-pad training tokens / train_s"),
    "build_dataset_s": ("s", "label selection through TSV write"),
    "evaluate_s": ("s", "metric report and its files"),
    "classify_mols_per_s": ("mol/s", "queries classified per second"),
    "extend_s": ("s", "propose, extend and write the ontology"),
    "explain_mols_per_s": ("mol/s", "molecules explained per second"),
    "test_micro_f1": ("ratio", "micro F1 of the evaluate stage"),
}

STAGES = (
    "build-dataset", "train-tokenizer", "pretrain", "finetune",
    "evaluate", "classify", "explain", "extend",
)
# per-layer metric -> the end-to-end metric it should move
PER_LAYER = {
    "stage.import.s": "setup_s",
    **{f"stage.{name}.s": "pipeline_s" for name in STAGES},
    "ontology.load_obo.s": "setup_s",
    "ontology.ancestors.calls": "build_dataset_s, extend_s",
    "ontology.ancestors.s": "build_dataset_s, extend_s",
    "ontology.insert_subsumptions.s": "extend_s",
    "ontology.save_obo.s": "extend_s",
    "ontology.save_obo.bytes": "extend_s",
    "dataset.select_label_classes.s": "build_dataset_s",
    "dataset.select_label_classes.candidates": "build_dataset_s",
    "dataset.build_dataset.s": "build_dataset_s",
    "dataset.split_dataset.s": "build_dataset_s",
    "dataset.save_tsv.s": "build_dataset_s",
    "dataset.load_tsv.s": "train_s",
    "tokenizer.train_bpe.s": "pipeline_s",
    "tokenizer.encode.calls": "classify_mols_per_s",
    "tokenizer.encode.s": "classify_mols_per_s",
    "tokenizer.encode.tokens": "classify_mols_per_s",
    "model.loss_and_grad.calls": "train_tokens_per_s, train_s",
    "model.loss_and_grad.s": "train_tokens_per_s, train_s",
    "model.loss_and_grad.ms.p50": "train_tokens_per_s, train_s",
    "model.loss_and_grad.ms.p99": "train_tokens_per_s, train_s",
    "model.loss_and_grad.gflops": "train_tokens_per_s, train_s",
    "model.mlm_loss_value.s": "train_tokens_per_s",
    "model.predict_logits.s": "classify_mols_per_s",
    "model.predict_logits.pad_fraction": "classify_mols_per_s",
    "model.forward.s": "explain_mols_per_s",
    "model.save_model.s": "train_tokens_per_s",
    "model.save_model.bytes": "train_tokens_per_s",
    "model.load_model.s": "setup_s",
    "model.load_model.bytes": "setup_s",
    "model.init_model.s": "setup_s",
    "training.adam_step.calls": "train_tokens_per_s, train_s",
    "training.adam_step.s": "train_tokens_per_s, train_s",
    "training.adam_step.ms.p50": "train_tokens_per_s, train_s",
    "training.adam_step.bytes": "train_tokens_per_s, train_s",
    "training.apply_dynamic_masking.s": "train_s, train_tokens_per_s",
    "training.pretrain.self_s": "train_s",
    "training.finetune.self_s": "train_s",
    "training.checkpoint_stall.s": "train_tokens_per_s",
    "metrics.compute_report.s": "evaluate_s",
    "metrics.roc_auc_detail.s": "evaluate_s",
    "metrics.prf.s": "evaluate_s",
    "metrics.write_report.s": "evaluate_s",
    "extension.classify_batch.self_s": "classify_mols_per_s",
    "extension.propose_extensions.s": "extend_s",
    "extension.extend.s": "extend_s",
    "extension.accepted": "extend_s",
    "extension.below_threshold": "extend_s",
    "extension.proposals": "extend_s",
    "attribution.token_importance.s": "explain_mols_per_s",
    "attribution.head_token_share.s": "explain_mols_per_s",
    "attribution.render_report.s": "explain_mols_per_s",
    "trace.spans": "(tracing cost)",
    "trace.overhead_s": "(tracing cost)",
    "trace.overhead_ratio": "(tracing cost)",
}
_UNITS = {
    "s": "s", "self_s": "s", "calls": "count", "bytes": "B", "gflops": "GFLOP/s",
    "p50": "ms", "p99": "ms", "pad_fraction": "ratio", "overhead_ratio": "ratio",
    "overhead_s": "s",
}


def unit_of(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "count")


def machine() -> dict:
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Benchmark:
    def __init__(self, args):
        from common import Checks, HashLedger, sources_digest

        self.args = args
        self.kind = "smoke" if args.smoke else "full"
        self.run_dir = os.path.join(STATE, f"run-{os.getpid()}")
        self.inputs = os.path.join(self.run_dir, "inputs")
        os.makedirs(self.inputs)
        # output digests are compared only between runs of the same program
        # and benchmark sources
        code = sources_digest(os.path.join(SRC, "ontograft"), HERE)[:16]
        self.ledger = HashLedger(os.path.join(STATE, f"hashes-{code}.json"))
        self.checks = Checks()
        self.operations = 0
        self.env = dict(os.environ)

    def prepare(self) -> dict:
        if self.args.workload == "toy-pipeline":
            import toy

            return toy.prepare(self.inputs, self.args.seed, self.args.smoke)
        import paper

        return paper.prepare(self.inputs, self.args.seed, self.args.smoke)

    def round(self, index: int, traced: bool = False, once: bool = False):
        """One round of the workload.  ``once`` calls every stage and set-up
        once, as a traced round does, so that the two are comparable."""
        work = os.path.join(self.run_dir, f"round-{index}")
        os.makedirs(work)
        trace_id = f"{self.args.workload}-seed{self.args.seed}-round{index}" if traced else ""
        try:
            if self.args.workload == "toy-pipeline":
                return self._toy_round(work, trace_id, once or traced)
            return self._paper_round(work, trace_id, once or traced)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _toy_round(self, work: str, trace_id: str, once: bool):
        import toy
        from common import median

        stages, repeats = toy.run_stages(self.inputs, work, self.env, trace_id, once)
        self.operations += len(STAGES) + len(toy.REPEATED) * toy.REPEATS * len(repeats)
        micro = toy.check_outputs(self.inputs, work, stages, repeats, self.args.smoke,
                                  self.args.seed, self.ledger, self.checks)
        if micro is None:
            return {}, []
        runs = [*stages.values(), *repeats]

        def calls(name):
            return [c for run in runs for c in run["calls"] if c["stage"] == name]

        def busy(name):
            return median(c["main_s"] - c["setup_load_s"] for c in calls(name))

        train_s = busy("pretrain") + busy("finetune")
        meta = self.meta
        metrics = {
            # each stage process as a user runs it: its import plus its loads
            "setup_s": sum(
                run["import_s"] + median(c["setup_load_s"] for c in calls(name))
                for name, run in stages.items()
            ),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
            "pipeline_s": sum(run["wall_s"] for run in stages.values()),
            "train_s": train_s,
            "train_tokens_per_s": toy.train_tokens(self.inputs, work, self.args.smoke) / train_s,
            "build_dataset_s": busy("build-dataset"),
            "evaluate_s": busy("evaluate"),
            "classify_mols_per_s": meta["n_queries"] / busy("classify"),
            "extend_s": busy("extend"),
            "explain_mols_per_s": meta["n_explain"] / busy("explain"),
            "test_micro_f1": micro,
        }
        dumps = [run["trace"] for run in stages.values() if "trace" in run]
        self.import_total = sum(run["import_s"] for run in stages.values())
        self.ontology_path = os.path.join(self.inputs, "toy.obo")
        self.min_members = toy.MIN_MEMBERS
        return metrics, dumps

    def _paper_round(self, work: str, trace_id: str, once: bool):
        import paper
        from common import median, read_json

        results = []
        for part in paper.PARTS:
            out = os.path.join(work, f"result-{part}.json")
            command = [sys.executable, os.path.join(HERE, "paper.py"), "--part", part,
                       "--inputs", self.inputs, "--work", work, "--out", out]
            if trace_id:
                command += ["--trace-id", f"{trace_id}-{part}"]
            if self.args.smoke:
                command.append("--smoke")
            if once:
                command.append("--once")
            proc = subprocess.run(command, cwd=work, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0 or not os.path.exists(out):
                self.checks.add(f"paper.{part}.exit_0", False, proc.stderr[-1000:])
                break
            results.append(read_json(out))
        self.operations += len(STAGES)
        stage_s = {}
        for result in results:
            stage_s.update(result["stage_s"])
            for failure in result["stage_failed"]:
                self.checks.add("paper.stage", False, failure)
            for item in result["checks"]:
                self.checks.add(item["name"], item["ok"], item["detail"])
            for key, digest in sorted(result["hashes"].items()):
                self.checks.run(f"{key}.stable_sha256", lambda k=key, d=digest: self.ledger.check(
                    f"{k}.{self.kind}.seed{self.args.seed}", d))
        if len(stage_s) < len(STAGES):
            return {}, []
        train, curate = results
        self.checks.run("paper.saved_model_reloads", lambda: self._reload(train))
        meta = self.meta
        train_s = stage_s["pretrain"] + stage_s["finetune"]
        metrics = {
            "setup_s": sum(
                r["import_s"] + median(sum(run.values()) for run in r["setup_runs"])
                for r in results
            ),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "pipeline_s": sum(stage_s.values()),
            "train_s": train_s,
            "train_tokens_per_s": meta["train_tokens"] / train_s,
            "build_dataset_s": stage_s["build-dataset"],
            "evaluate_s": stage_s["evaluate"],
            "classify_mols_per_s": meta["n_queries"] / stage_s["classify"],
            "extend_s": stage_s["extend"],
            "explain_mols_per_s": meta["n_explain"] / stage_s["explain"],
            "test_micro_f1": curate["test_micro_f1"],
        }
        self.import_total = sum(r["import_s"] for r in results)
        self.ontology_path = os.path.join(self.inputs, "ontology.obo")
        self.min_members = paper.SHAPES[self.kind]["min_members"]
        return metrics, [r["trace"] for r in results if "trace" in r]

    @staticmethod
    def _reload(result: dict):
        import paper
        from ontograft.model import load_model

        store, _, _ = load_model(os.path.join(result["out_dirs"]["finetune"], "model.bin"))
        same = paper.params_digest(store) == result["hashes"]["paper.final_parameters"]
        return same, f"bitwise equal to the trained parameters: {same}"

    def per_layer(self, dumps: list[dict], untraced: dict, traced: dict) -> dict:
        import spans

        from ontograft import ontology

        summary = spans.summarize(dumps)
        counts: dict[str, float] = {}
        for dump in dumps:
            for key, value in dump["counts"].items():
                counts[key] = counts.get(key, 0.0) + value

        def stat(name, field="s"):
            entry = summary.get(name)
            return 0.0 if entry is None else entry[field]

        out = {"stage.import.s": self.import_total}
        for name in STAGES:
            out[f"stage.{name}.s"] = stat(f"stage.{name}")
        for metric in PER_LAYER:
            if metric in out or metric.startswith(("trace.", "stage.")):
                continue
            base, _, field = metric.rpartition(".")
            if base.endswith(".ms"):
                calls = summary.get(base[:-3], {"ms": [0.0]})["ms"]
                out[metric] = spans.percentile(calls, 50 if field == "p50" else 99)
            elif field in ("s", "calls", "self_s"):
                out[metric] = stat(base, field)
            elif metric in counts:
                out[metric] = counts[metric]
        flops = counts.get("model.loss_and_grad.flops", 0.0)
        out["model.loss_and_grad.gflops"] = flops / max(stat("model.loss_and_grad"), 1e-12) / 1e9
        cells = counts.get("model.predict_logits.cells", 0.0)
        out["model.predict_logits.pad_fraction"] = counts.get("model.predict_logits.pad_cells", 0.0) / max(cells, 1.0)
        out["training.checkpoint_stall.s"] = spans.time_under(
            dumps, "model.save_model", ("stage.pretrain", "stage.finetune"))
        # candidate pool of label selection, computed outside the traced round
        graph = ontology.load_obo(self.ontology_path)
        structured = graph.structured_leaves()
        out["dataset.select_label_classes.candidates"] = sum(
            1 for cid in graph.ids()
            if not graph[cid].obsolete and not graph.is_leaf(cid)
            and len(graph.descendants(cid) & structured) >= self.min_members
        )
        out["trace.spans"] = sum(len(d["spans"]) for d in dumps)
        out["trace.overhead_s"] = traced["pipeline_s"] - untraced["pipeline_s"]
        out["trace.overhead_ratio"] = out["trace.overhead_s"] / untraced["pipeline_s"]
        return out

    def run(self) -> dict:
        self.meta = self.prepare()
        if self.args.trace:
            untraced, _ = self.round(0, once=True)
            traced, dumps = self.round(1, traced=True)
            if not untraced or not traced:
                return {}
            return self.per_layer(dumps, untraced, traced)
        metrics, _ = self.round(0)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ontograft benchmark")
    parser.add_argument("--workload", required=True, choices=("toy-pipeline", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long shapes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ontograft", "__init__.py")):
        print(f"error: no ontograft sources under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [SRC, HERE]
    # byte-compile once up front, so no timed import pays for it
    compileall.compile_dir(SRC, quiet=1)
    for name, value in machine().items():
        print(f"machine {name}: {value}")

    bench = Benchmark(args)
    try:
        metrics = bench.run()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
        bench.ledger.save()
    checks = bench.checks.items
    failed = sum(1 for c in checks if not c["ok"])
    for check in checks:
        print(f"check {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    wanted = PER_LAYER if args.trace else END_TO_END
    out = {}
    for name in wanted:
        if name not in metrics:
            continue
        unit = unit_of(name) if args.trace else END_TO_END[name][0]
        out[name] = {"value": float(metrics[name]), "unit": unit}
        target = f"  -> {PER_LAYER[name]}" if args.trace else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{target}")
    attempted = bench.operations + len(checks)
    result = {
        "correct": failed == 0 and len(out) == len(wanted),
        "attempted": max(attempted, 1),
        "failed": failed + (len(wanted) - len(out) if len(out) < len(wanted) else 0),
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
