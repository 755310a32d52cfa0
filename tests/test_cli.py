import argparse
import json
import re
import shlex
import struct
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from ontograft import cli, model, ontology, tokenizer
from ontograft.cli import build_parser, main
from ontograft.config import SETTINGS, build_run_config, setting_type
from ontograft.ontology import load_obo, save_obo
from ontograft.synthetic import generate_toy_ontology

from conftest import with_config_keys


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny pipeline run shared by the CLI smoke tests."""
    root = tmp_path_factory.mktemp("cli")
    graph = generate_toy_ontology(seed=5, n_leaves=80)
    obo = root / "toy.obo"
    save_obo(graph, obo)

    config = root / "run.ini"
    config.write_text(
        "[run]\nseed = 5\n\n"
        "[dataset]\nn_label_classes = 6\nmin_members = 10\n"
        "ratio_train = 0.6\nratio_validation = 0.2\nratio_test = 0.2\n\n"
        "[tokenizer]\ntarget_vocab = 40\nmax_len = 96\n\n"
        "[model]\nn_layers = 1\nn_heads = 2\nhidden_dim = 16\nffn_dim = 32\n\n"
        "[training]\npretrain_epochs = 2\nfinetune_epochs = 3\n"
        "batch_size = 8\nlearning_rate = 0.003\n"
    )

    dataset = root / "dataset"
    assert main(["build-dataset", "--config", str(config), "--ontology", str(obo),
                 "--out", str(dataset)]) == 0
    tokenizer = root / "tokenizer.txt"
    assert main(["train-tokenizer", "--config", str(config),
                 "--input", str(dataset / "train.tsv"), "--out", str(tokenizer)]) == 0
    model = root / "pretrained.bin"
    assert main(["pretrain", "--config", str(config), "--tokenizer", str(tokenizer),
                 "--train", str(dataset / "train.tsv"),
                 "--validation", str(dataset / "validation.tsv"),
                 "--labels", str(dataset / "labels.txt"), "--out", str(model)]) == 0
    finetuned = root / "finetuned.bin"
    assert main(["finetune", "--config", str(config), "--model", str(model),
                 "--tokenizer", str(tokenizer), "--dataset", str(dataset),
                 "--out", str(finetuned)]) == 0
    queries = root / "queries.smi"
    queries.write_text("CCC(NN)CC\nCC(BrBr)Cc1ccccc1\n")
    return {
        "root": root, "config": config, "obo": obo, "dataset": dataset,
        "tokenizer": tokenizer, "pretrained": model, "finetuned": finetuned,
        "queries": queries,
    }


def _subparsers() -> argparse._SubParsersAction:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


class TestPipeline:
    def test_dataset_files_exist(self, workspace):
        for name in ("train.tsv", "validation.tsv", "test.tsv", "labels.txt", "stats.json"):
            assert (workspace["dataset"] / name).exists()
        stats = json.loads((workspace["dataset"] / "stats.json").read_text())
        assert stats["n_molecules"] > 0

    def test_training_log_written(self, workspace):
        log = workspace["root"] / "training_log.csv"
        assert log.exists()
        lines = log.read_text().strip().split("\n")
        assert lines[0].startswith("epoch,phase")
        assert any(",pretrain," in l for l in lines)
        assert any(",finetune," in l for l in lines)

    def test_evaluate(self, workspace):
        out = workspace["root"] / "eval"
        code = main(["evaluate", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--test", str(workspace["dataset"] / "test.tsv"),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["metrics"]) == {"samples", "micro", "macro", "weighted"}
        assert (out / "per_class_f1.csv").exists()
        assert (out / "per_molecule_f1.csv").exists()

    def test_classify(self, workspace):
        smiles_file = workspace["root"] / "query.smi"
        smiles_file.write_text("CCC(NN)CC\nCC(BrBr)Cc1ccccc1\n")
        out = workspace["root"] / "classified.json"
        code = main(["classify", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--input", str(smiles_file), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 2
        for result in doc["results"]:
            assert "accepted" in result and "suggestions" in result

    def test_explain(self, workspace):
        out = workspace["root"] / "explain"
        code = main(["explain", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--smiles", "CC(NN)CCC", "--out", str(out), "--csv"])
        assert code == 0
        html = (out / "explain_0000.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert (out / "explain_0000.csv").exists()

    def test_extend(self, workspace):
        smiles_file = workspace["root"] / "new.smi"
        smiles_file.write_text("CCCC(OO)C\n")
        out_obo = workspace["root"] / "extended.obo"
        out_report = workspace["root"] / "changes.json"
        code = main(["extend", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--ontology", str(workspace["obo"]),
                     "--input", str(smiles_file),
                     "--out-ontology", str(out_obo),
                     "--out-report", str(out_report),
                     "--threshold", "0.1"])
        assert code == 0
        extended = load_obo(out_obo)
        original = load_obo(workspace["obo"])
        assert len(extended) >= len(original)
        doc = json.loads(out_report.read_text())
        assert len(doc["added"]) + len(doc["below_threshold"]) == 1


class TestErrors:
    def test_missing_seed(self, tmp_path, capsys):
        obo = tmp_path / "x.obo"
        obo.write_text("[Term]\nid: A\n")
        code = main(["build-dataset", "--ontology", str(obo), "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("ERROR\tcli\t")

    @pytest.mark.parametrize("command, missing", [
        (command, key) for command, (_, _, required, optional) in cli.STAGES.items()
        for key in required + optional
    ])
    def test_missing_input_path(self, tmp_path, capsys, command, missing):
        """Every input a subcommand names is checked before anything loads."""
        present = tmp_path / "present"
        present.write_text("")  # never loaded: the missing path stops the run first
        gone = tmp_path / "gone"
        sub = _subparsers().choices[command]
        argv = [command, "--seed", "1"]
        for action in sub._actions:
            if action.dest == missing:
                argv += [action.option_strings[0], str(gone)]
            elif action.required:
                path = present if action.dest in cli.INPUTS else tmp_path / "out" / action.dest
                argv += [action.option_strings[0], str(path)]
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ERROR\tcli\tinput path does not exist: {gone}"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\nwhatever = 2\n")
        obo = tmp_path / "x.obo"
        obo.write_text("[Term]\nid: A\n")
        code = main(["build-dataset", "--config", str(config),
                     "--ontology", str(obo), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "whatever" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, run_lines", [
        (["--threshold", "1.5"], ""),
        (["--threshold", "0"], ""),
        ([], "threshold = -2\n"),
    ])
    def test_threshold_outside_unit_interval(self, tmp_path, capsys, flags, run_lines):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 1\n" + run_lines)
        # the config is resolved before any input is read: any file will do
        x = tmp_path / "x"
        x.touch()
        code = main(["classify", "--config", str(config), *flags, "--tokenizer", str(x),
                     "--model", str(x), "--labels", str(x), "--input", str(x),
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("ERROR\tconfig\t") and "threshold" in err
        assert not (tmp_path / "c.json").exists()

    def test_threshold_flag_only_where_a_threshold_is_read(self):
        takes = {name for name, sub in _subparsers().choices.items()
                 if any(action.dest == "threshold" for action in sub._actions)}
        assert takes == {"finetune", "evaluate", "classify", "explain", "extend"}

    @staticmethod
    def _curation_run(workspace, tmp_path, stage, config):
        """``stage`` on the workspace's model: its argv and the outputs it names."""
        ws = workspace
        inputs = {
            "evaluate": ["--test", ws["dataset"] / "test.tsv"],
            "extend": ["--ontology", ws["obo"], "--input", ws["queries"]],
        }.get(stage, ["--input", ws["queries"]])
        outputs = {
            "extend": {"--out-ontology": tmp_path / "extended.obo",
                       "--out-report": tmp_path / "changes.json"},
        }.get(stage, {"--out": tmp_path / stage})
        argv = [stage, "--config", config, "--model", ws["finetuned"],
                "--tokenizer", ws["tokenizer"], "--labels", ws["dataset"] / "labels.txt",
                *inputs, *(part for flag, path in outputs.items() for part in (flag, path))]
        return [str(part) for part in argv], list(outputs.values())

    @pytest.mark.parametrize("stage", ["classify", "evaluate", "explain", "extend"])
    def test_batch_size_below_one(self, workspace, tmp_path, capsys, stage):
        config = tmp_path / "run.ini"
        config.write_text(workspace["config"].read_text().replace(
            "batch_size = 8", "batch_size = 0"))
        argv, outputs = self._curation_run(workspace, tmp_path, stage, config)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "ERROR\tconfig\t[training] batch_size must be >= 1, got 0"
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("key, stage", [("top_k", "classify"), ("id_width", "extend")])
    def test_negative_extension_setting(self, workspace, tmp_path, capsys, key, stage):
        config = tmp_path / "run.ini"
        config.write_text(workspace["config"].read_text() + f"\n[extension]\n{key} = -1\n")
        argv, outputs = self._curation_run(workspace, tmp_path, stage, config)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"ERROR\tconfig\t[extension] {key} must be >= 0, got -1"
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("section, key, value, kind", [
        ("model", "n_layers", "abc", "int"),
        ("run", "threshold", "half", "float"),
        ("training", "learning_rate", "1e-4x", "float"),
        ("masking", "mask_fraction", "most", "float"),
    ])
    def test_malformed_numeric_value(self, workspace, tmp_path, capsys,
                                     section, key, value, kind):
        body = {"run": "seed = 1\n"}
        body[section] = body.get(section, "") + f"{key} = {value}\n"
        config = tmp_path / "bad.ini"
        config.write_text("".join(f"[{name}]\n{lines}\n" for name, lines in body.items()))
        code = main(["pretrain", "--config", str(config),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--train", str(workspace["dataset"] / "train.tsv"),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--out", str(tmp_path / "m.bin"), "--epochs", "0"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ERROR\tconfig\t[{section}] {key}: invalid {kind} value {value!r}"

    def test_malformed_masking_value_fails_any_subcommand(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\n\n[masking]\nmask_fraction = some\n")
        obo = tmp_path / "x.obo"
        obo.write_text("[Term]\nid: A\n")
        code = main(["build-dataset", "--config", str(config),
                     "--ontology", str(obo), "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "ERROR\tconfig\t[masking] mask_fraction: invalid float value 'some'"

    def test_mask_probability_flag_overrides_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 1\n\n[masking]\nmask_probability = 0.5\n")
        code = main(["pretrain", "--config", str(config), "--mask-probability", "1.5",
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--train", str(workspace["dataset"] / "train.tsv"),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--out", str(tmp_path / "m.bin"), "--epochs", "0"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "ERROR\ttraining\tmask_probability must be in [0, 1]"

    @pytest.mark.parametrize("where", [
        "magic", "version", "config_json", "name", "array_start", "array_middle", "last_byte",
    ])
    def test_truncated_model(self, workspace, tmp_path, capsys, where):
        blob = workspace["finetuned"].read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 12)
        first_name = 16 + cfg_len + 4 + 2  # after the array count and name length
        (name_len,) = struct.unpack_from("<H", blob, first_name - 2)
        first_array = first_name + name_len + 1 + 4 * 2
        cut = {
            "magic": 5, "version": 10, "config_json": 16 + cfg_len // 2,
            "name": first_name + 2, "array_start": first_array + 3,
            "array_middle": len(blob) // 2, "last_byte": len(blob) - 1,
        }[where]
        model = tmp_path / "cut.bin"
        model.write_bytes(blob[:cut])
        smiles_file = tmp_path / "query.smi"
        smiles_file.write_text("CCC(NN)CC\n")
        code = main(["classify", "--config", str(workspace["config"]),
                     "--model", str(model),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--input", str(smiles_file), "--out", str(tmp_path / "out.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("ERROR\tmodel\t")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("where", [
        "header", "max_len", "merges_header", "merge_line", "merge_boundary", "last_merge",
    ])
    def test_truncated_tokenizer(self, workspace, tmp_path, capsys, where):
        blob = workspace["tokenizer"].read_bytes()
        merges = blob.index(b"[merges]\n") + len(b"[merges]\n")
        cut = {
            "header": 5,
            "max_len": blob.index(b"max_len\t") + len(b"max_len\t") + 1,
            "merges_header": blob.index(b"[merges]") + 3,
            "merge_line": len(blob) - 2,  # inside the last merge, newline gone
            # whole lines: only the merge count in the header tells these apart
            "merge_boundary": blob.index(b"\n", merges) + 1,
            "last_merge": blob.rindex(b"\n", 0, len(blob) - 1) + 1,
        }[where]
        tokenizer = tmp_path / "cut.txt"
        tokenizer.write_bytes(blob[:cut])
        smiles_file = tmp_path / "query.smi"
        smiles_file.write_text("CCC(NN)CC\n")
        code = main(["classify", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(tokenizer),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--input", str(smiles_file), "--out", str(tmp_path / "out.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("ERROR\ttokenizer\t")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key, value", [("activation", "gelu_tanh"), ("mlm_loss", "bce")])
    def test_model_trained_with_retired_option(self, workspace, tmp_path, capsys, key, value):
        """A model file saved while the option existed, with a value the model
        no longer computes, names it instead of loading as another model."""
        model = tmp_path / "old.bin"
        model.write_bytes(with_config_keys(workspace["finetuned"].read_bytes(), **{key: value}))
        smiles_file = tmp_path / "query.smi"
        smiles_file.write_text("CCC(NN)CC\n")
        code = main(["classify", "--config", str(workspace["config"]),
                     "--model", str(model),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--input", str(smiles_file), "--out", str(tmp_path / "out.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ERROR\tmodel\t{model}: {key} = {value!r} is no longer supported"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("line", ["activation = gelu", "mlm_loss = cross_entropy"])
    def test_retired_model_setting_is_an_unknown_key(self, tmp_path, capsys, line):
        """An INI written by an older --write-default-config must drop the
        two retired [model] lines; an unknown key is an error, as any is."""
        config = tmp_path / "old.ini"
        config.write_text(f"[run]\nseed = 1\n\n[model]\n{line}\n")
        obo = tmp_path / "x.obo"
        obo.write_text("[Term]\nid: A\n")
        code = main(["build-dataset", "--config", str(config),
                     "--ontology", str(obo), "--out", str(tmp_path / "d")])
        assert code == 1
        key = line.split(" = ")[0]
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ERROR\tcli\t{config}: unknown key {key!r} in [model]"

    def test_retired_keep_fraction_is_an_unknown_key(self, tmp_path, capsys):
        """A selected token that is neither masked nor randomized is kept, so
        the keep fraction is implied and has no key."""
        config = tmp_path / "old.ini"
        config.write_text("[run]\nseed = 1\n\n[masking]\nkeep_fraction = 0.1\n")
        obo = tmp_path / "x.obo"
        obo.write_text("[Term]\nid: A\n")
        code = main(["build-dataset", "--config", str(config),
                     "--ontology", str(obo), "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ERROR\tcli\t{config}: unknown key 'keep_fraction' in [masking]"

    def test_evaluate_labels_must_match_header(self, workspace, tmp_path, capsys):
        """A labels.txt in another order than the TSV header would score
        every column against the wrong class."""
        classes = (workspace["dataset"] / "labels.txt").read_text().split()
        reordered = tmp_path / "labels.txt"
        reordered.write_text("\n".join(reversed(classes)) + "\n")
        out = tmp_path / "eval"
        code = main(["evaluate", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--test", str(workspace["dataset"] / "test.tsv"),
                     "--labels", str(reordered), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("ERROR\tdataset\t")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("mismatch", ["extra_class", "one_class"])
    def test_explain_labels_must_match_model(self, workspace, tmp_path, capsys, mismatch):
        """An extra class indexed past the model's outputs; fewer classes
        paired the model's columns with the wrong labels."""
        classes = (workspace["dataset"] / "labels.txt").read_text().split()
        labels = tmp_path / "labels.txt"
        chosen = classes + ["EXTRA:1"] if mismatch == "extra_class" else classes[:1]
        labels.write_text("\n".join(chosen) + "\n")
        out = tmp_path / "explain"
        code = main(["explain", "--config", str(workspace["config"]),
                     "--model", str(workspace["finetuned"]),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--labels", str(labels), "--smiles", "CC(NN)CCC", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("ERROR\texplainability\t")
        assert not out.exists()

    def test_cycle_reported_as_ontology_error(self, tmp_path, capsys):
        obo = tmp_path / "cyc.obo"
        obo.write_text("[Term]\nid: A\nis_a: B\n\n[Term]\nid: B\nis_a: A\n")
        code = main(["build-dataset", "--seed", "1", "--ontology", str(obo),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("ERROR\tontology\t")

    def test_write_default_config(self, tmp_path):
        path = tmp_path / "default.ini"
        assert main(["--write-default-config", str(path)]) == 0
        text = path.read_text()
        assert "[model]" in text and "n_heads = 12" in text
        assert "mask_probability = 0.15" in text

    def test_no_command_prints_help(self):
        assert main([]) == 2

    def test_log_lines_are_tab_separated(self, workspace, capsys):
        main(["train-tokenizer", "--config", str(workspace["config"]),
              "--input", str(workspace["dataset"] / "train.tsv"),
              "--out", str(workspace["root"] / "tok2.txt")])
        err = capsys.readouterr().err
        info_lines = [l for l in err.splitlines() if l.startswith("INFO\t")]
        assert info_lines
        assert all(len(l.split("\t")) == 3 for l in info_lines)


def _explain_args(workspace, out, *extra, config=None) -> list[str]:
    return ["explain", "--config", str(config or workspace["config"]),
            "--model", str(workspace["finetuned"]), "--tokenizer", str(workspace["tokenizer"]),
            "--labels", str(workspace["dataset"] / "labels.txt"), "--out", str(out), *extra]


# token lengths repeat (a molecule twice, and distinct molecules of one
# length) and differ, so batches of one length form beside single molecules
EXPLAIN_MOLECULES = ["CCCC", "CC(NN)CCC", "CCCO", "CCCC", "CC(OO)C", "CCNC", "CC(NN)CCC",
                     "CCCCCCCCCC", "CCOC", "CCC(OO)CC"]


@pytest.fixture(scope="module")
def explained_alone(workspace, tmp_path_factory):
    """Each of EXPLAIN_MOLECULES explained by its own ``explain --smiles`` run."""
    pages = []
    for i, smiles in enumerate(EXPLAIN_MOLECULES):
        out = tmp_path_factory.mktemp(f"alone{i}")
        assert main(_explain_args(workspace, out, "--smiles", smiles, "--csv")) == 0
        pages.append({ext: (out / f"explain_0000.{ext}").read_bytes() for ext in ("html", "csv")})
    return pages


class TestExplainBatches:
    def test_molecules_mix_repeated_and_distinct_lengths(self, workspace):
        tok = tokenizer.Tokenizer.load(workspace["tokenizer"])
        lengths = [len(tok.encode(smiles, truncate=True)) for smiles in EXPLAIN_MOLECULES]
        by_length = {n: {s for s, m in zip(EXPLAIN_MOLECULES, lengths) if m == n} for n in lengths}
        assert 1 < len(by_length) < len(lengths)
        assert any(len(group) > 1 for group in by_length.values())

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_same_bytes_as_one_molecule_at_a_time(self, workspace, explained_alone, tmp_path,
                                                   batch_size):
        config = tmp_path / "run.ini"
        config.write_text(workspace["config"].read_text().replace(
            "batch_size = 8", f"batch_size = {batch_size}"))
        molecules = tmp_path / "molecules.smi"
        molecules.write_text("\n".join(EXPLAIN_MOLECULES) + "\n")
        out = tmp_path / "explain"
        assert main(_explain_args(workspace, out, "--input", str(molecules), "--csv",
                                  config=config)) == 0
        assert len(list(out.iterdir())) == 2 * len(EXPLAIN_MOLECULES)
        for i, alone in enumerate(explained_alone):
            for ext, page in alone.items():
                assert (out / f"explain_{i:04d}.{ext}").read_bytes() == page, (i, ext)

    def test_molecule_without_real_tokens_fails_before_any_page(self, workspace, tmp_path,
                                                               capsys):
        molecules = tmp_path / "molecules.smi"
        molecules.write_text("CCCc1ccccc1\nCCO\n%%%\nCCCC\n")
        out = tmp_path / "explain"
        assert main(_explain_args(workspace, out, "--input", str(molecules))) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "ERROR\texplainability\t'%%%': sequence has no real tokens"
        assert not out.exists()

    @pytest.mark.parametrize("layer", ["5", "-2"])
    def test_layer_out_of_range_fails_before_any_page(self, workspace, tmp_path, capsys, layer):
        out = tmp_path / "explain"
        assert main(_explain_args(workspace, out, "--smiles", "CCCC", "--layer", layer)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"ERROR\texplainability\tlayer {layer} out of range for 1 layers")
        assert not out.exists()


class TestClassifyBatches:
    """A query's scores do not depend on which queries share its batch."""

    def test_classify_results_do_not_depend_on_batch_size(self, workspace, tmp_path):
        molecules = tmp_path / "molecules.smi"
        molecules.write_text("\n".join(EXPLAIN_MOLECULES) + "\n")
        results = []
        for batch_size in (1, 3, 32):
            config = tmp_path / f"run{batch_size}.ini"
            config.write_text(workspace["config"].read_text().replace(
                "batch_size = 8", f"batch_size = {batch_size}"))
            out = tmp_path / f"results{batch_size}.json"
            assert main(["classify", "--config", str(config),
                         "--model", str(workspace["finetuned"]),
                         "--tokenizer", str(workspace["tokenizer"]),
                         "--labels", str(workspace["dataset"] / "labels.txt"),
                         "--input", str(molecules), "--out", str(out)]) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1] == results[2]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A dataset so small that build-dataset gives it no validation rows
    (largest remainder at 0.7/0.09/0.21 over 4 molecules), with a tokenizer
    and an untrained model for it."""
    root = tmp_path_factory.mktemp("small")
    obo = root / "toy.obo"
    save_obo(generate_toy_ontology(seed=3, n_leaves=10), obo)
    config = root / "run.ini"
    config.write_text(
        "[run]\nseed = 3\n\n[dataset]\nn_label_classes = 2\nmin_members = 1\n\n"
        "[tokenizer]\ntarget_vocab = 30\nmax_len = 96\n\n"
        "[model]\nn_layers = 1\nn_heads = 2\nhidden_dim = 8\nffn_dim = 16\n"
    )
    common = ["--config", str(config)]
    assert main(["build-dataset", *common, "--ontology", str(obo),
                 "--out", str(root / "data")]) == 0
    assert main(["train-tokenizer", *common, "--input", str(root / "data" / "train.tsv"),
                 "--out", str(root / "tok.txt")]) == 0
    assert main(["pretrain", *common, "--tokenizer", str(root / "tok.txt"),
                 "--train", str(root / "data" / "train.tsv"),
                 "--labels", str(root / "data" / "labels.txt"),
                 "--out", str(root / "model.bin"), "--epochs", "0"]) == 0
    return root, common


def _header_only(src: Path, dst: Path) -> None:
    dst.write_text(src.read_text().split("\n", 1)[0] + "\n")


class TestEmptySplits:
    def test_finetune_without_validation_rows(self, small_run, tmp_path):
        root, common = small_run
        stats = json.loads((root / "data" / "stats.json").read_text())
        assert stats["split_sizes"] == {"train": 3, "validation": 0, "test": 1}
        code = main(["finetune", *common, "--model", str(root / "model.bin"),
                     "--tokenizer", str(root / "tok.txt"), "--dataset", str(root / "data"),
                     "--out", str(tmp_path / "ft.bin"), "--epochs", "2",
                     "--checkpoint-dir", str(tmp_path / "ck")])
        assert code == 0
        # no validation data: validation loss and F1 read 0, as pretraining logs them
        rows = (tmp_path / "training_log.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3:5] for row in rows] == [["0", "0"], ["0", "0"]]
        assert (tmp_path / "ck" / "best.bin").exists()

    def test_finetune_without_training_rows(self, small_run, tmp_path, capsys):
        root, common = small_run
        data = tmp_path / "data"
        data.mkdir()
        for name in ("labels.txt", "validation.tsv", "test.tsv"):
            (data / name).write_bytes((root / "data" / name).read_bytes())
        _header_only(root / "data" / "train.tsv", data / "train.tsv")
        code = main(["finetune", *common, "--model", str(root / "model.bin"),
                     "--tokenizer", str(root / "tok.txt"), "--dataset", str(data),
                     "--out", str(tmp_path / "ft.bin")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("ERROR\ttraining\t")
        assert not (tmp_path / "ft.bin").exists()

    def test_pretrain_without_training_rows(self, small_run, tmp_path, capsys):
        root, common = small_run
        train = tmp_path / "train.tsv"
        _header_only(root / "data" / "train.tsv", train)
        code = main(["pretrain", *common, "--tokenizer", str(root / "tok.txt"),
                     "--train", str(train), "--labels", str(root / "data" / "labels.txt"),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("ERROR\ttraining\t")
        assert not (tmp_path / "m.bin").exists()

    def test_evaluate_header_only_test_split(self, small_run, tmp_path, capsys):
        root, common = small_run
        test = tmp_path / "test.tsv"
        _header_only(root / "data" / "test.tsv", test)
        out = tmp_path / "eval"
        code = main(["evaluate", *common, "--model", str(root / "model.bin"),
                     "--tokenizer", str(root / "tok.txt"), "--test", str(test),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("ERROR\tevaluation\t")
        assert not out.exists()


class TestInputs:
    def test_loaders_are_looked_up_when_they_run(self, workspace, tmp_path, monkeypatch):
        """Loaders replaced through their module attributes after cli is
        imported, as a profiler does, are the ones a stage calls."""
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, attr in ((model, "load_model"), (ontology, "load_obo")):
            original = getattr(module, attr)
            wrapped = counting(f"{module.__name__}.{attr}", original)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "ontograft" and getattr(loaded, attr, None) is original:
                    monkeypatch.setattr(loaded, attr, wrapped)
        monkeypatch.setattr(tokenizer.Tokenizer, "load", staticmethod(
            counting("ontograft.tokenizer.Tokenizer.load", tokenizer.Tokenizer.load)))
        queries = tmp_path / "query.smi"
        queries.write_text("CCC(NN)CC\n")
        common = ["--config", str(workspace["config"]), "--model", str(workspace["finetuned"]),
                  "--tokenizer", str(workspace["tokenizer"]),
                  "--labels", str(workspace["dataset"] / "labels.txt"), "--input", str(queries)]
        assert main(["classify", *common, "--out", str(tmp_path / "c.json")]) == 0
        assert calls == ["ontograft.tokenizer.Tokenizer.load", "ontograft.model.load_model"]
        calls.clear()
        assert main(["extend", *common, "--ontology", str(workspace["obo"]),
                     "--out-ontology", str(tmp_path / "e.obo"),
                     "--out-report", str(tmp_path / "e.json")]) == 0
        assert calls == ["ontograft.tokenizer.Tokenizer.load", "ontograft.model.load_model",
                         "ontograft.ontology.load_obo"]

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [
            shlex.split(line)
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ontograft ")
        ]
        for argv in commands:
            build_parser().parse_args(argv[1:])
        assert {argv[1] for argv in commands if not argv[1].startswith("-")} == set(cli.STAGES)


# One non-default value for every setting: the section and key sets must be
# those of config.SETTINGS, so a setting dropped from or misspelled in the
# table fails here.
NON_DEFAULT = {
    "dataset": {"n_label_classes": 7, "min_members": 11, "ratio_train": 0.5,
                "ratio_validation": 0.25, "ratio_test": 0.25},
    "tokenizer": {"target_vocab": 45, "max_len": 90, "min_frequency": 3},
    "model": {"n_layers": 1, "n_heads": 2, "hidden_dim": 16, "ffn_dim": 32,
              "attention_dropout": 0.05, "dtype": "float32"},
    "training": {"pretrain_epochs": 2, "finetune_epochs": 3, "batch_size": 5,
                 "learning_rate": 0.003, "weight_decay": 0.02, "checkpoint_every": 2},
    "masking": {"mask_probability": 0.2, "mask_fraction": 0.6, "random_fraction": 0.25},
    "extension": {"id_prefix": "NEW:", "id_width": 4, "top_k": 2},
    "run": {"seed": 11, "threshold": 0.4},
}
# The settings that some subcommand flag overrides.
FLAG_SETTINGS = {
    "seed", "threshold", "n_label_classes", "min_members", "target_vocab", "max_len",
    "mask_probability", "learning_rate", "batch_size", "top_k", "id_prefix",
}


def _typed(cfg):
    return {s: {k: (type(v), v) for k, v in values.items()} for s, values in cfg.sections.items()}


def _write_ini(path, sections):
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "\n"
        for section, values in sections.items()
    ))
    return path


class TestSettings:
    def test_table_matches_the_expected_settings(self):
        assert {s: set(v) for s, v in SETTINGS.items()} == {
            s: set(v) for s, v in NON_DEFAULT.items()
        }
        keys = [key for values in SETTINGS.values() for key in values]
        assert len(keys) == len(set(keys)), "keys must be unique across sections"

    def test_written_default_config_resolves_to_the_defaults(self, tmp_path):
        path = tmp_path / "default.ini"
        assert main(["--write-default-config", str(path)]) == 0
        path.write_text(path.read_text().replace("# seed = 1234", "seed = 7"))
        assert _typed(build_run_config(str(path), {})) == _typed(build_run_config(None, {"seed": 7}))

    def test_every_ini_value_reaches_the_run(self, workspace, tmp_path, monkeypatch):
        ini = _write_ini(tmp_path / "run.ini", NON_DEFAULT)
        cfg = build_run_config(str(ini), {})
        for section, values in NON_DEFAULT.items():
            for key, value in values.items():
                assert SETTINGS[section][key] != value
                assert cfg.sections[section][key] == value
                assert type(getattr(cfg, key)) is setting_type(key), key

        built = {}
        monkeypatch.setattr(cli, "run_pretrain", lambda store, mcfg, tok, corpus, val, tcfg, policy,
                            **kw: built.update(model=mcfg, pretrain=tcfg, masking=policy) or [])
        monkeypatch.setattr(cli, "run_finetune", lambda store, mcfg, tok, splits, tcfg,
                            **kw: built.update(finetune=tcfg) or [])
        model = tmp_path / "m.bin"
        assert main(["pretrain", "--config", str(ini), "--tokenizer", str(workspace["tokenizer"]),
                     "--train", str(workspace["dataset"] / "train.tsv"),
                     "--labels", str(workspace["dataset"] / "labels.txt"),
                     "--out", str(model)]) == 0
        assert main(["finetune", "--config", str(ini), "--model", str(model),
                     "--tokenizer", str(workspace["tokenizer"]),
                     "--dataset", str(workspace["dataset"]), "--out", str(tmp_path / "f.bin")]) == 0
        assert built["pretrain"].epochs == NON_DEFAULT["training"]["pretrain_epochs"]
        assert built["finetune"].epochs == NON_DEFAULT["training"]["finetune_epochs"]
        for section, obj in [("model", built["model"]), ("training", built["pretrain"]),
                             ("training", built["finetune"]), ("masking", built["masking"])]:
            assert obj.seed == NON_DEFAULT["run"]["seed"]
            names = {f.name for f in fields(obj)}
            for key, value in NON_DEFAULT[section].items():
                assert key in names or key.endswith("_epochs"), (section, key)
                if key in names:
                    assert getattr(obj, key) == value, (section, key)

    def test_every_setting_flag_overrides_the_file(self, tmp_path, monkeypatch):
        ini = _write_ini(tmp_path / "run.ini", NON_DEFAULT)
        resolved = []
        subparsers = _subparsers()
        for command in subparsers.choices:
            monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"),
                                lambda args, cfg, inputs: resolved.append(cfg))
        # every required path below is "x": make it exist, and load nothing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").touch()
        monkeypatch.setattr(cli, "_load_inputs", lambda args: None)
        keys = {key for values in SETTINGS.values() for key in values}
        seen = set()
        for command, sub in subparsers.choices.items():
            required = [s for a in sub._actions if a.required for s in (a.option_strings[0], "x")]
            for action in sub._actions:
                key = action.dest
                if key not in keys:
                    continue
                section = next(s for s, values in SETTINGS.items() if key in values)
                default = SETTINGS[section][key]
                value = "12" if isinstance(default, type) else str(default)
                argv = [command, "--config", str(ini), *required, action.option_strings[0], value]
                assert main(argv) == 0, argv
                cfg = resolved.pop()
                assert getattr(cfg, key) == setting_type(key)(value), argv
                assert type(getattr(cfg, key)) is setting_type(key), argv
                assert NON_DEFAULT[section][key] != getattr(cfg, key)
                seen.add(key)
        assert seen == FLAG_SETTINGS
