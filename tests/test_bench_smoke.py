"""The benchmark's seconds-long self-test, so that a change to the model or
training API that breaks the harness shows up with the unit tests.  The
toy workload runs every stage through ``ontograft.cli.main``, fine-tuning
with ``--checkpoint-dir``, so the checkpoint writer runs end to end too."""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def assert_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0


def test_paper_smoke_run_is_correct():
    assert_smoke_run_is_correct("paper")


def test_toy_pipeline_smoke_run_is_correct():
    assert_smoke_run_is_correct("toy-pipeline")


def _perfbench(name):
    """``perfbench/<name>.py`` as a module, without putting the directory on
    the import path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans, key):
    """The function the traced run wraps under ``key``: a public function of
    its ``ontograft`` module, or one of the methods ``spans.METHODS`` lists."""
    short, name = key.split(".")
    module = importlib.import_module(f"ontograft.{short}")
    public = dict(spans._public_functions(module))
    if name in public:
        return public[name]
    cls_name, methods = spans.METHODS.get(short, (None, ()))
    assert name in methods, f"{key} names no traced function"
    raw = vars(getattr(module, cls_name))[name]
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def _hook_reads(work):
    """Per ``HOOKS`` key, the (index, name, has a default) of every call
    argument its hook reads, from the source of ``perfbench/work.py``."""
    tree = ast.parse((ROOT / "perfbench" / "work.py").read_text())
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and node.targets[0].id == "HOOKS")
    reads = {}
    for key, value in zip(hooks.keys, hooks.values):
        if isinstance(value, ast.Call):  # _file_bytes(count key, index, name)
            calls, first = [value], 1
        else:
            calls = [node for node in ast.walk(bodies[value.id])
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"]
            first = 2  # _arg(args, kwargs, index, name[, default])
        reads[key.value] = {(call.args[first].value, call.args[first + 1].value,
                             len(call.args) > first + 2) for call in calls}
    assert set(reads) == set(work.HOOKS)
    return reads


def test_traced_names_and_hook_arguments_match_the_program():
    """The smoke runs do not trace, so a renamed function or a moved
    parameter would zero or miscount the per-layer metrics silently."""
    spans, work = _perfbench("spans"), _perfbench("work")
    for key in spans.SETUP_FUNCTIONS:
        _traced(spans, key)
    reads = _hook_reads(work)
    assert {(1, "config", False), (2, "batch", False), (3, "objective", False),
            (5, "mlm_targets", False)} <= reads["model.loss_and_grad"]
    assert (0, "store", False) in reads["training.adam_step"] & reads["model.save_model"]
    assert reads["ontology.save_obo"] == {(1, "path", False)}
    for key, hook_reads in reads.items():
        parameters = inspect.signature(_traced(spans, key)).parameters
        positional = [name for name, p in parameters.items()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        for index, name, has_default in hook_reads:
            if index < len(positional):
                assert positional[index] == name, (key, index, name)
            else:  # never passed: the hook always reads its default
                assert has_default and name not in parameters, (key, index, name)
