"""The benchmark's seconds-long self-test, so that a change to the model or
training API that breaks the harness shows up with the unit tests.  The
toy workload runs every stage through ``ontograft.cli.main``, fine-tuning
with ``--checkpoint-dir``, so the checkpoint writer runs end to end too."""

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
