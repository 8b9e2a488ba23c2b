import hashlib
import importlib
import json
import logging
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from checks import bundled_results_path
from templink import (cli, evaluate, graphs, pipeline, records, tape,
                      textenc, trainer)
from templink.checkpoint import load_checkpoint, read_meta, save_checkpoint
from templink.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                          OutputLock, UsageError, load_config_file, main,
                          make_parser, pipeline_config)
from templink.model import ModelConfig
from templink.pipeline import RunConfig, parse_years
from templink.textenc import Tokenizer
from templink.trainer import NumericError, TrainConfig

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).parents[1] / "perfbench"


class TestParseYears:
    def test_range(self):
        assert parse_years("2019..2022") == [2019, 2020, 2021, 2022]

    def test_single_year_range(self):
        assert parse_years("2020..2020") == [2020]

    def test_comma_list(self):
        assert parse_years("2019,2021") == [2019, 2021]

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            parse_years("2022..2019")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_years("twenty nineteen")


class TestConfigFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config_file(tmp_path / "none.ini")

    def test_sections_parsed(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[paths]\ndata_dir = /d\nout_dir = /o\n"
            "[run]\nyears = 2019..2020\nmode = forward_only\n"
            "categories = new\n"
            "[graphs]\nk = 3\nmin_count = 2\nmax_count = 5\nembed_dim = 16\n"
            "[model]\ndim = 8\ngcn_out = 4\n"
            "[train]\nlearning_rate = 0.01\nepochs = 2\n")
        cfg = load_config_file(ini)
        assert cfg.data_dir == "/d" and cfg.out_dir == "/o"
        assert cfg.years == [2019, 2020]
        assert (cfg.k, cfg.min_count, cfg.max_count) == (3, 2, 5)
        assert cfg.embed_dim == 16
        assert cfg.model.dim == 8 and cfg.model.gcn_out == 4
        assert cfg.train.learning_rate == 0.01 and cfg.train.epochs == 2

    def test_defaults_when_sections_absent(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[paths]\nout_dir = /o\n")
        cfg = load_config_file(ini)
        assert cfg.k == 10 and cfg.min_count == 46 and cfg.max_count == 200
        assert cfg.train.batch_size == 32

    def test_cli_flags_beat_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[graphs]\nk = 3\n[run]\nyears = 2019\n")
        parser = make_parser()
        args = parser.parse_args(["build-graphs", "--config", str(ini),
                                  "--k", "7", "--years", "2021"])
        cfg = pipeline_config(args)
        assert cfg.k == 7
        assert cfg.years == [2021]

    def test_readme_config_block_loads(self, tmp_path, caplog):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        ini = tmp_path / "readme.ini"
        ini.write_text(block)
        with caplog.at_level(logging.WARNING, logger="templink.cli"):
            assert load_config_file(ini) == replace(
                RunConfig(), years=[2019, 2020, 2021, 2022])
        # a key that names no setting would load and pass above, but warn
        assert caplog.records == []

    @pytest.mark.parametrize("section, key", [
        ("train", "gram_sample = 1"), ("run", "mode = forward_only"),
        ("run", "categories = new"), ("graphs", "embed_seed = 5"),
        ("model", "seed = 3"), ("train", "seed = 4"),
        ("model", "encoder_mode = attn"), ("model", "encoder_layers = 1")],
        ids=["gram_sample", "mode", "categories", "embed_seed", "model_seed",
             "train_seed", "encoder_mode", "encoder_layers"])
    def test_retired_key_is_ignored(self, tmp_path, caplog, section, key):
        # configs written before these settings went carry them (the
        # benchmark's run.ini does): each loads, shapes nothing, and is
        # named in one warning
        ini = tmp_path / "run.ini"
        ini.write_text("[paths]\nout_dir = /o\n[run]\nyears = 2019\n"
                       "[graphs]\nk = 3\n[model]\ndim = 8\n"
                       "[train]\nepochs = 2\n")
        want = load_config_file(ini)
        ini.write_text(ini.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key}\n"))
        with caplog.at_level(logging.WARNING, logger="templink.cli"):
            assert load_config_file(ini) == want
        name = key.split(" =")[0]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING,
             f"{ini}: [{section}] {name} names no setting; ignored")]

    def test_default_section_is_an_ordinary_section(self, tmp_path, caplog):
        # configparser would copy [DEFAULT] keys into every other section;
        # here its keys name no setting, as in any unknown section
        ini = tmp_path / "run.ini"
        ini.write_text("[DEFAULT]\nk = 3\n[run]\nyears = 2019\n"
                       "[model]\ndim = 8\n")
        with caplog.at_level(logging.WARNING, logger="templink.cli"):
            cfg = load_config_file(ini)
        assert (cfg.k, cfg.years, cfg.model.dim) == (10, [2019], 8)
        assert [r.getMessage() for r in caplog.records] == [
            f"{ini}: [DEFAULT] k names no setting; ignored"]

    def test_every_setting_loads_from_file(self, tmp_path):
        # every leaf setting at a valid non-default value, written into
        # the section README documents for it, loads back equal
        cfg = RunConfig(
            data_dir="/d", out_dir="/o", baseline="/b.csv",
            years=[2018, 2020], seed=7, k=3, min_count=2, max_count=9,
            embed_dim=16,
            model=ModelConfig(dim=8, gcn_hidden=5, gcn_out=6, gcn_layers=3,
                              max_len=40),
            train=TrainConfig(learning_rate=0.01, epochs=3, batch_size=4,
                              loss_a=0.25, loss_b=0.5, grad_clip=2.0))
        default = RunConfig()
        section_of = {"data_dir": "paths", "out_dir": "paths",
                      "baseline": "paths", "years": "run", "seed": "run"}
        sections = {}
        for part, was, section in ((cfg, default, "graphs"),
                                   (cfg.model, default.model, "model"),
                                   (cfg.train, default.train, "train")):
            for f in fields(part):
                value = getattr(part, f.name)
                if is_dataclass(value):
                    continue
                assert value != getattr(was, f.name), f.name
                text = (",".join(map(str, value)) if f.name == "years"
                        else repr(value) if isinstance(value, float)
                        else str(value))
                where = section_of.get(f.name, section)
                sections.setdefault(where, []).append(f"{f.name} = {text}")
        assert sum(map(len, sections.values())) == 20
        ini = tmp_path / "run.ini"
        ini.write_text("\n".join(f"[{name}]\n" + "\n".join(lines)
                                 for name, lines in sections.items()) + "\n")
        assert load_config_file(ini) == cfg

    def test_seed_flag_beats_file_seed(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nyears = 2019\nseed = 7\n")
        parser = make_parser()
        assert pipeline_config(parser.parse_args(
            ["train", "--config", str(ini)])).seed == 7
        assert pipeline_config(parser.parse_args(
            ["train", "--config", str(ini), "--seed", "3"])).seed == 3

    def test_percent_in_value_is_literal(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[paths]\ndata_dir = /x/100%data\nout_dir = /o/%(k)s\n")
        cfg = load_config_file(ini)
        assert (cfg.data_dir, cfg.out_dir) == ("/x/100%data", "/o/%(k)s")

    def test_file_read_as_utf8_in_any_locale(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_bytes("[paths]\ndata_dir = /x/d\u00e4ta\n".encode())
        src = str(Path(textenc.__file__).parents[1])
        env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   LC_ALL="C", PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from templink.cli import "
             "load_config_file; print(ascii(load_config_file(sys.argv[1])"
             ".data_dir))", str(ini)],
            capture_output=True, text=True, env=env)
        assert run.stdout == "'/x/d\\xe4ta'\n", run.stderr

    @pytest.mark.parametrize("edit, flags", [
        (("learning_rate = 0.01", "learning_rate = -1.0"), []),
        (("learning_rate = 0.01", "learning_rate = nan"), []),
        (("batch_size = 4", "batch_size = 0"), []),
        (("[paths]\n", ""), []),
        (("gcn_layers = 1", "gcn_layers = 0"), []),
        (("gcn_hidden = 4", "gcn_hidden = 0"), []),
        (("dim = 8", "dim = 0"), []),
        (("max_len = 32", "max_len = 3"), []),
        (("batch_size = 4", "batch_size = 4\ngrad_clip = -1"), []),
        (("batch_size = 4", "batch_size = 4\nloss_a = -0.5"), []),
        (("batch_size = 4", "batch_size = 4\nloss_b = nan"), []),
        (("min_count = 2", "min_count = 6"), []),
        (("k = 3", "k = 0"), []),
        (("embed_dim = 16", "embed_dim = 0"), []),
        (("years = 2019..2020", "years = ,"), []),
        (None, ["--years", ","]),
        (("years = 2019..2020", "years = 2019,2019"), []),
        (None, ["--years", "2019,2020,2019"]),
        (None, ["--k", "0"]),
        (None, ["--min-count", "9", "--max-count", "5"]),
        (("[run]\n", "[run]\nseed = -1\n"), []),
        (None, ["--seed", "-1"]),
    ], ids=["negative_learning_rate", "nan_learning_rate", "zero_batch_size",
            "missing_section_header", "zero_gcn_layers", "zero_gcn_hidden",
            "zero_dim", "short_max_len", "negative_grad_clip",
            "negative_loss_a", "nan_loss_b",
            "min_count_above_max_count", "zero_k", "zero_embed_dim",
            "no_years", "no_years_flag", "repeated_year",
            "repeated_year_flag", "zero_k_flag",
            "min_count_above_max_count_flags", "negative_seed",
            "negative_seed_flag"])
    def test_invalid_value_is_usage_error(self, tmp_path, toy_data, edit,
                                          flags):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        if edit:
            text = ini.read_text()
            assert edit[0] in text
            ini.write_text(text.replace(*edit))
        for command in ("experiment", "train"):
            assert main([command, "--config", str(ini), *flags]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-graphs", "train", "eval",
                                         "experiment"])
    def test_no_years_at_all_is_usage_error(self, tmp_path, toy_data, command):
        # neither [run] years nor --years: a run over nothing is no success
        out = tmp_path / "out"
        assert main([command, "--data-dir", str(toy_data),
                     "--out-dir", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_seed_flag_sets_all_seeds(self):
        # the run's one seed: embedding, parameters and batch order derive
        # from it
        parser = make_parser()
        args = parser.parse_args(["train", "--seed", "11", "--years", "2019"])
        assert pipeline_config(args).seed == 11


def reaped_pid() -> int:
    """The PID of a child process that has exited and been waited for."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


class TestOutputLock:
    def test_acquire_release(self, tmp_path):
        with OutputLock(tmp_path):
            assert (tmp_path / ".lock").exists()
        assert not (tmp_path / ".lock").exists()

    def test_contention(self, tmp_path):
        with OutputLock(tmp_path):
            with pytest.raises(UsageError):
                OutputLock(tmp_path).__enter__()

    def test_stale_lock_blocks_main(self, tmp_path, toy_data):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(reaped_pid()))
        code = main(["build-graphs", "--data-dir", str(toy_data),
                     "--out-dir", str(out), "--years", "2019"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("holder", ["reaped", "self", "empty"])
    def test_locked_message_names_holder(self, tmp_path, toy_data, caplog,
                                         holder):
        pid = {"reaped": reaped_pid(), "self": os.getpid(), "empty": ""}[holder]
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(pid))
        with caplog.at_level(logging.ERROR):
            code = main(["build-graphs", "--data-dir", str(toy_data),
                         "--out-dir", str(out), "--years", "2019"])
        assert code == EXIT_USAGE
        assert (out / ".lock").read_text() == str(pid)
        want = {"reaped": f"holds PID {pid}, which is not running",
                "self": f"holds PID {pid}, which is running",
                "empty": "holds no PID"}[holder]
        assert want in caplog.text


class TestMainDispatch:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_readme_cli_block_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        parser = make_parser()
        commands = set()
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "templink", line
            try:
                commands.add(parser.parse_args(argv[1:]).command)
            except SystemExit:
                pytest.fail(f"README CLI line does not parse: {line}")
        assert commands == {"ingest", "build-graphs", "train", "eval",
                            "experiment", "report"}

    def test_version_exits_ok(self):
        assert main(["--version"]) == EXIT_OK

    def test_bad_years_flag(self, tmp_path, toy_data):
        code = main(["build-graphs", "--data-dir", str(toy_data),
                     "--out-dir", str(tmp_path / "out"), "--years", "2022..2019"])
        assert code == EXIT_USAGE


class TestIngest:
    def test_jsonl_to_tsv(self, tmp_path):
        src = tmp_path / "ents.jsonl"
        src.write_text('{"qid": "Q1", "title": "A", "description": "first"}\n'
                       '{"qid": "Q2", "title": "B", "description": "second"}\n')
        data = tmp_path / "data"
        code = main(["ingest", "--data-dir", str(data), "--year", "2020",
                     "--entities", str(src)])
        assert code == EXIT_OK
        tsv = (data / "2020" / "entities.tsv").read_text()
        assert tsv == "Q1\tA\tfirst\nQ2\tB\tsecond\n"

    def test_idempotent(self, tmp_path):
        src = tmp_path / "ents.jsonl"
        src.write_text('{"qid": "Q1", "title": "A"}\n')
        data = tmp_path / "data"
        argv = ["ingest", "--data-dir", str(data), "--year", "2020",
                "--entities", str(src)]
        main(argv)
        first = (data / "2020" / "entities.tsv").read_bytes()
        main(argv)
        assert (data / "2020" / "entities.tsv").read_bytes() == first

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["ingest", "--data-dir", str(tmp_path / "d"),
                     "--year", "2020",
                     "--entities", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("flag, line, message", [
        ("--entities", '{"qid": "Q2", ', "malformed JSON"),
        ("--entities", '["Q2"]', "expected a JSON object, got list"),
        ("--mentions", '{"gold_qid": "Q1",', "malformed JSON"),
        ("--mentions", '"Q1"', "expected a JSON object, got str"),
        ("--entities", '{"qid": "Q2", "title": 5}',
         "title is 5, not a string"),
        ("--mentions", '{"gold_qid": "Q1", "mention": ["a"]}',
         'mention is ["a"], not a string'),
        ("--mentions",
         '{"gold_qid": "Q1", "mention": "a", "context_left": null}',
         "context_left is null, not a string"),
        ("--mentions", '{"gold_qid": "Q1"}', "empty mention span"),
    ], ids=["entities_malformed", "entities_not_object", "mentions_malformed",
            "mentions_not_object", "entities_number_title",
            "mentions_list_span", "mentions_null_context", "mentions_no_span"])
    def test_bad_jsonl_line_is_data_error_naming_it(self, tmp_path, caplog,
                                                    flag, line, message):
        # a good line and a blank one before the bad line 3
        ents = tmp_path / "ents.jsonl"
        ents.write_text('{"qid": "Q1", "title": "A"}\n')
        src = tmp_path / "bad.jsonl"
        src.write_text((ents.read_text() if flag == "--entities"
                        else '{"gold_qid": "Q1", "mention": "a"}\n')
                       + f"\n{line}\n")
        inputs = {"--entities": ents, flag: src}
        argv = ["ingest", "--data-dir", str(tmp_path / "data"), "--year", "2020"]
        for name, path in inputs.items():
            argv += [name, str(path)]
        assert main(argv) == EXIT_DATA
        assert f"{src}:3: {message}" in caplog.text
        target = {"--entities": "entities.tsv", "--mentions": "mentions_train.tsv"}
        assert not (tmp_path / "data" / "2020" / target[flag]).exists()

    @pytest.mark.parametrize("flag, text", [
        ("--mentions", '["Q1"]\n'), ("--test-mentions", '["Q1"]\n'),
        ("--triples", "Q1\tP1\n"),
        ("--entities", '{"qid": "Q1", "title": 5}\n'),
        ("--mentions", '{"gold_qid": "Q1", "mention": ["a"]}\n'),
        ("--test-mentions",
         '{"gold_qid": "Q1", "mention": "b", "context_left": null}\n'),
        ("--mentions", '{"gold_qid": "Q1"}\n'),
    ], ids=["mentions", "test_mentions", "triples", "entities_number_title",
            "mentions_list_span", "test_mentions_null_context",
            "mentions_no_span"])
    def test_bad_input_leaves_the_year_untouched(self, tmp_path, flag, text):
        # every input is read and checked before any TSV is written
        year = tmp_path / "data" / "2020"
        year.mkdir(parents=True)
        before = {"entities.tsv": b"Q0\told\tkept\n",
                  "mentions_train.tsv": b"Q0\tcontinual\t\tx\t\n",
                  "mentions_test.tsv": b"Q0\tnew\t\ty\t\n",
                  "triples.tsv": b"Q0\tP1\tQ0\n"}
        for name, data in before.items():
            (year / name).write_bytes(data)
        good = {"--entities": '{"qid": "Q1", "title": "A"}\n',
                "--mentions": '{"gold_qid": "Q1", "mention": "a"}\n',
                "--test-mentions": '{"gold_qid": "Q1", "mention": "b"}\n',
                "--triples": "Q1\tP1\tQ1\n"}
        argv = ["ingest", "--data-dir", str(tmp_path / "data"), "--year", "2020"]
        for i, (name, line) in enumerate(good.items()):
            src = tmp_path / f"in{i}"
            src.write_text(text if name == flag else line)
            argv += [name, str(src)]
        assert main(argv) == EXIT_DATA
        assert {p.name: p.read_bytes() for p in year.iterdir()} == before


def header_stamps(out) -> list:
    """The stamp in each checkpoint header of a run, in path order."""
    return [read_meta(p)["stamp"]
            for p in sorted((out / "checkpoints").glob("*.ckpt"))]


def toy_graphs_argv(data, out, extra=()):
    return (["build-graphs", "--data-dir", str(data), "--out-dir", str(out),
             "--years", "2019", "--min-count", "2", "--max-count", "5"]
            + list(extra))


def write_graphs_ini(path, data, out):
    path.write_text(
        f"[paths]\ndata_dir = {data}\nout_dir = {out}\n"
        "[run]\nyears = 2019\n"
        "[graphs]\nk = 3\nmin_count = 2\nmax_count = 5\nembed_dim = 16\n")
    return path


class TestBuildGraphs:
    def test_matches_golden(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_graphs_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["build-graphs", "--config", str(ini)]) == EXIT_OK
        for name in ("structure.adj", "feature.adj", "feature.mat",
                     "feature.mat.cols"):
            got = (out / "graphs" / "2019" / name).read_bytes()
            assert got == (GOLDEN / name).read_bytes(), name
        assert (out / "resolved_config.json").exists()

    def test_k_union_monotone(self, tmp_path, toy_data):
        edges = {}
        for k in (2, 4):
            out = tmp_path / f"out{k}"
            assert main(toy_graphs_argv(toy_data, out,
                                        ["--k", str(k)])) == EXIT_OK
            adj = (out / "graphs" / "2019" / "feature.adj").read_text()
            edges[k] = set(adj.splitlines()[1:])  # "i\tj" lines after the header
        assert edges[2] <= edges[4]

    def test_band_excluding_everything_is_data_error(self, tmp_path, toy_data):
        code = main(["build-graphs", "--data-dir", str(toy_data),
                     "--out-dir", str(tmp_path / "out"), "--years", "2019",
                     "--min-count", "500", "--max-count", "900"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["build-graphs", "train"])
    def test_entity_without_text_is_data_error_naming_it(
            self, tmp_path, toy_data, caplog, command):
        ents = toy_data / "2019" / "entities.tsv"
        lines = ents.read_text().splitlines(keepends=True)
        assert lines[3].startswith("Q4\t")
        lines[3] = "Q4\t \t \n"
        ents.write_text("".join(lines))
        out = tmp_path / "out"
        argv = [command] + toy_graphs_argv(toy_data, out)[1:]
        assert main(argv) == EXIT_DATA
        assert (f"{ents}: no title or description text for entity Q4"
                in caplog.text)
        assert not (out / "graphs").exists()
        assert not (out / "checkpoints").exists()

    def test_lock_released_after_failure(self, tmp_path, toy_data):
        out = tmp_path / "out"
        main(["build-graphs", "--data-dir", str(toy_data),
              "--out-dir", str(out), "--years", "2019",
              "--min-count", "500", "--max-count", "900"])
        assert not (out / ".lock").exists()


def write_experiment_ini(path, data, out, years="2019..2020"):
    path.write_text(
        f"[paths]\ndata_dir = {data}\nout_dir = {out}\n"
        f"[run]\nyears = {years}\n"
        "[graphs]\nk = 3\nmin_count = 2\nmax_count = 5\nembed_dim = 16\n"
        "[model]\ndim = 8\ngcn_hidden = 4\ngcn_out = 4\ngcn_layers = 1\n"
        "max_len = 32\n"
        "[train]\nlearning_rate = 0.01\nepochs = 2\nbatch_size = 4\n")
    return path


class TestExperiment:
    def test_end_to_end_outputs(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        for category in ("continual", "new"):
            assert (out / f"gap_matrix_{category}.csv").exists()
            assert (out / f"aggregate_{category}.csv").exists()
            for year in (2019, 2020):
                assert (out / "checkpoints" / f"{category}_{year}.ckpt").exists()
        assert (out / "recall_vs_gap.svg").exists()
        # 2 categories x 2 years = 4 checkpoints, each stamped by this run
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert header_stamps(out) == [resolved["stamp"]] * 4

    def test_rerun_skips_and_reproduces(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        ckpt = out / "checkpoints" / "continual_2019.ckpt"
        before = ckpt.read_bytes()
        mtime = ckpt.stat().st_mtime_ns
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        # checkpoint untouched: its header holds the run's stamp
        assert ckpt.stat().st_mtime_ns == mtime
        assert ckpt.read_bytes() == before

    def test_every_output_written_atomically(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("metric,gap,category,value\n1,0,new,0.5\n")
        assert main(["experiment", "--config", str(ini),
                     "--baseline", str(baseline)]) == EXIT_OK
        assert main(["report", "--out-dir", str(out),
                     "--table", str(bundled_results_path())]) == EXIT_OK
        files = [p for p in out.rglob("*") if p.is_file()]
        names = {p.name for p in files}
        assert {"resolved_config.json", "loss_curve_new_2019.csv",
                "gap_matrix_new.csv", "aggregate_new.csv", "boost_new.csv",
                "recall_vs_gap.svg", "table_boost.json"} <= names
        assert {oct(p.stat().st_mode & 0o777) for p in files} == {"0o600"}
        # csv writers keep their \r\n line ends
        gap = (out / "gap_matrix_new.csv").read_bytes()
        assert gap.count(b"\r\n") == gap.count(b"\n") == 1 + 4

    def test_gap_matrix_dimensions(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        lines = (out / "gap_matrix_new.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 year grid


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append(a) or fn(*a, **kw))
    return calls


def drop_scores(out):
    """Delete a run's score records, so that its next eval scores again."""
    shutil.rmtree(out / "scores")


class TestReadsOncePerYear:
    def test_cold_and_resumed_experiment(self, tmp_path, toy_data, monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        # a resume with every record current reads no corpus at all
        for phase, loads, triples in (("cold", 3, 3), ("rescore", 3, 0),
                                      ("current", 0, 0)):
            if phase == "rescore":
                drop_scores(out)
            corpus = count_calls(monkeypatch, pipeline, "load_year_corpus")
            triple = count_calls(monkeypatch, records, "load_triples")
            assert main(["experiment", "--config", str(ini)]) == EXIT_OK, phase
            assert (len(corpus), len(triple)) == (loads, triples), phase
            monkeypatch.undo()

    def test_each_text_split_once(self, tmp_path, toy_data, monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        texts = set()
        for entities, _, train_m, test_m in pipeline.load_corpora(
                load_config_file(ini)).values():
            texts.update(t for e in entities for t in (e.title, e.description))
            texts.update(t for m in train_m + test_m
                         for t in (m.context_left, m.mention, m.context_right))
        for phase, split in (("cold", texts), ("rescore", texts),
                             ("current", [])):
            if phase == "rescore":
                drop_scores(out)
            calls = count_calls(monkeypatch, textenc, "split_text")
            assert main(["experiment", "--config", str(ini)]) == EXIT_OK, phase
            assert sorted(text for text, in calls) == sorted(split), phase
            monkeypatch.undo()

    def test_each_token_vector_drawn_once(self, tmp_path, toy_data,
                                          monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        tokens = {tok for entities, _, _, _ in pipeline.load_corpora(
                      load_config_file(ini)).values()
                  for e in entities
                  for tok in textenc.split_text(e.title + " " + e.description)}
        keys, seeded = [], []
        seed_words, pcg = graphs._seed_words, np.random.PCG64
        embed = pipeline.embed_descriptions

        def words(k):
            keys.extend(k.tolist())
            return seed_words(k)

        def counted(*args, **kwargs):
            monkeypatch.setattr(np.random, "PCG64",
                                lambda seq: seeded.append(seq) or pcg(seq))
            try:
                return embed(*args, **kwargs)
            finally:
                monkeypatch.setattr(np.random, "PCG64", pcg)

        monkeypatch.setattr(graphs, "_seed_words", words)
        monkeypatch.setattr(pipeline, "embed_descriptions", counted)
        for command in ("build-graphs", "experiment"):
            keys.clear()
            seeded.clear()
            assert main([command, "--config", str(ini)]) == EXIT_OK, command
            assert len(keys) == len(set(keys)) == len(tokens), command
            assert len(seeded) == len(keys), command

    def test_one_embedding_call_per_command(self, tmp_path, toy_data,
                                            monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        for argv in (["build-graphs", "--out-dir", str(tmp_path / "graphs")],
                     ["experiment"]):
            calls = count_calls(monkeypatch, pipeline, "embed_descriptions")
            assert main([*argv, "--config", str(ini)]) == EXIT_OK, argv
            assert len(calls) == 1, argv
            monkeypatch.undo()

        def graph_files():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in (out / "graphs").rglob("*") if p.is_file()}

        before = graph_files()
        calls = count_calls(monkeypatch, pipeline, "embed_descriptions")
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        assert calls == []
        assert len(before) == 3 * 5 and graph_files() == before

    def test_resumed_eval_renders_and_loads_once(self, tmp_path, toy_data,
                                                 monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        corpora = pipeline.load_corpora(load_config_file(ini))
        drop_scores(out)
        loads = count_calls(monkeypatch, pipeline, "load_model")
        renders = {name: count_calls(monkeypatch, Tokenizer, name)
                   for name in ("render_entity", "render_mention")}
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        assert len(loads) == 2 * 3
        assert len(renders["render_entity"]) == sum(
            len(entities) for entities, _, _, _ in corpora.values())
        assert len(renders["render_mention"]) == sum(
            len(test_m) for _, _, _, test_m in corpora.values())
        # with every record current, nothing is loaded or rendered again
        for calls in (loads, *renders.values()):
            calls.clear()
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        assert (loads, *renders.values()) == ([], [], [])

    def test_second_year_graph_error_exits_2_and_unlocks(self, tmp_path,
                                                          toy_data):
        # every 2020 description token is unique: the [2, 5] band is empty
        (toy_data / "2020" / "entities.tsv").write_text("".join(
            f"Q{i}\ttopic{i}\tonly{i}\n" for i in range(1, 13)))
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_DATA
        # every year's graphs are built before any training: neither year
        # has a checkpoint or a graph file
        assert [p.name for p in out.rglob("*") if p.is_file()] == [
            "resolved_config.json"]
        assert not (out / ".lock").exists()

    def test_graphs_built_before_training(self, tmp_path, toy_data,
                                          monkeypatch):
        # every year's kNN graph is built, then every year's graph files
        # are written, before the first training run; in one process the
        # (year, category) jobs then train in order
        events = []

        def log(name, event):
            fn = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *a, **kw: events.append(
                event(*a)) or fn(*a, **kw))

        log("build_knn_graph", lambda *a: "knn")
        log("train", lambda snap, *a: f"train {snap.year}")
        log("save_model", lambda path, *a: f"checkpoint {path.name}")
        log("save_adjacency", lambda graph, path: f"graph {path.parent.name}")
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data,
                                   tmp_path / "out")
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        assert events == [
            "knn", "knn", "graph 2019", "graph 2019", "graph 2020", "graph 2020",
            "train 2019", "checkpoint continual_2019.ckpt",
            "train 2019", "checkpoint new_2019.ckpt",
            "train 2020", "checkpoint continual_2020.ckpt",
            "train 2020", "checkpoint new_2020.ckpt"]


class TestPartialGraphBuild:
    GRAPH_FILES = ["feature.adj", "feature.mat", "feature.mat.cols",
                   "index.manifest", "structure.adj"]

    def test_crash_while_saving_feature_matrix(self, tmp_path, toy_data,
                                               monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)

        def crash(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "save_feature_matrix", crash)
        assert main(["experiment", "--config", str(ini)]) == EXIT_DATA
        monkeypatch.undo()
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["build-graphs", "--config", str(fresh_ini)]) == EXIT_OK
        for year in ("2019", "2020"):
            got = out / "graphs" / year
            assert sorted(p.name for p in got.iterdir()) == self.GRAPH_FILES
            for name in self.GRAPH_FILES:
                want = (fresh / "graphs" / year / name).read_bytes()
                assert (got / name).read_bytes() == want, (year, name)

    def test_malformed_graph_file_is_rebuilt(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019")
        assert main(["build-graphs", "--config", str(ini)]) == EXIT_OK
        path = out / "graphs" / "2019" / "feature.adj"
        fresh = path.read_bytes()
        path.write_text("SPARSE v1\t12\t12\t1\t00000000\n0\t1\t2\n")
        assert main(["train", "--config", str(ini)]) == EXIT_OK
        assert path.read_bytes() == fresh
        assert not (out / ".lock").exists()


def run_artifacts(out) -> dict:
    """relative path -> bytes of the graph files, checkpoints, loss curves,
    score records and report CSVs of a run."""
    paths = [*out.glob("graphs/*/*"), *out.glob("checkpoints/*"),
             *out.glob("scores/*"), *out.glob("*.csv")]
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(paths)}


def edit_entities(data, out):
    entities = data / "2019" / "entities.tsv"
    entities.write_text(entities.read_text().replace(
        "stable thing", "stable thing renamed", 1))


class TestResumeStamp:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_after_checkpoint_write_retrains(self, tmp_path, toy_data,
                                                   monkeypatch, workers):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        save_model = pipeline.save_model

        def save_then_crash(*args, **kwargs):
            save_model(*args, **kwargs)
            raise OSError(28, "No space left on device")

        # with two workers the patch reaches them through fork
        monkeypatch.setattr(pipeline, "save_model", save_then_crash)
        assert main(["experiment", "--config", str(ini), "--k", "4"],
                    workers=workers) == EXIT_DATA
        assert not (out / ".lock").exists()
        monkeypatch.undo()
        assert main(["experiment", "--config", str(ini)],
                    workers=workers) == EXIT_OK
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini)]) == EXIT_OK
        assert run_artifacts(out) == run_artifacts(fresh)

    def test_resume_logs_why(self, tmp_path, toy_data, caplog):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        ckpts = [out / "checkpoints" / f"{c}_{y}.ckpt"
                 for y in (2019, 2020) for c in ("continual", "new")]

        def resume_lines(*flags):
            caplog.clear()
            assert main(["experiment", "--config", str(ini), *flags]) == EXIT_OK
            stamp = json.loads(
                (out / "resolved_config.json").read_text())["stamp"]
            lines = [r.getMessage() for r in caplog.records
                     if r.name == "templink.pipeline"
                     and r.getMessage().startswith(("skipping", "training"))]
            return stamp, lines

        caplog.set_level(logging.INFO, logger="templink.pipeline")
        k3, lines = resume_lines()
        assert lines == [f"training {p}: no checkpoint" for p in ckpts]
        k4, lines = resume_lines("--k", "4")
        assert lines == [f"training {p}: stamp changed {k3} -> {k4}"
                         for p in ckpts]
        # a checkpoint from before stamps were stored retrains once
        tensors, meta = load_checkpoint(ckpts[0])
        del meta["stamp"]
        save_checkpoint(ckpts[0], tensors, meta)
        _, lines = resume_lines("--k", "4")
        assert lines == ([f"training {ckpts[0]}: stamp changed none -> {k4}"]
                         + [f"skipping {p}: stamp {k4} unchanged"
                            for p in ckpts[1:]])
        _, lines = resume_lines("--k", "4")
        assert lines == [f"skipping {p}: stamp {k4} unchanged" for p in ckpts]

    def test_format_bump_retrains_every_checkpoint(self, tmp_path, toy_data,
                                                   monkeypatch, caplog):
        # a change that moves checkpoint bytes bumps CHECKPOINT_FORMAT; no
        # checkpoint an older format wrote is then current
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        old = header_stamps(out)[0]
        files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        monkeypatch.setattr(trainer, "CHECKPOINT_FORMAT",
                            trainer.CHECKPOINT_FORMAT + 1)
        assert main(["eval", "--config", str(ini)]) == EXIT_DATA
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == files

        caplog.set_level(logging.INFO, logger="templink.pipeline")
        assert main(["train", "--config", str(ini)]) == EXIT_OK
        new = header_stamps(out)[0]
        assert new != old
        ckpts = [out / "checkpoints" / f"{c}_{y}.ckpt"
                 for y in (2019, 2020) for c in ("continual", "new")]
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith(("skipping", "training"))] == [
            f"training {p}: stamp changed {old} -> {new}" for p in ckpts]
        assert main(["eval", "--config", str(ini)]) == EXIT_OK
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini)]) == EXIT_OK
        assert run_artifacts(out) == run_artifacts(fresh)

    @pytest.mark.parametrize("then, fresh_flags", [
        ([["experiment", "--k", "8"]], ["--k", "8"]),
        # build-graphs under another k deletes the checkpoints its graph
        # files no longer match, so the next experiment retrains them
        ([["build-graphs", "--k", "8"], ["experiment"]], []),
    ], ids=["experiment", "build_graphs"])
    def test_changed_k_equals_fresh_run(self, tmp_path, toy_data, then,
                                        fresh_flags):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        for command, *flags in then:
            assert main([command, "--config", str(ini), *flags]) == EXIT_OK
            stamp = json.loads(
                (out / "resolved_config.json").read_text())["stamp"]
            assert set(header_stamps(out)) <= {stamp}
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini),
                     *fresh_flags]) == EXIT_OK
        assert run_artifacts(out) == run_artifacts(fresh)

    def test_edited_input_retrains(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        before = run_artifacts(out)
        edit_entities(toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini)]) == EXIT_OK
        assert run_artifacts(out) == run_artifacts(fresh) != before

    def test_baseline_change_retrains_nothing(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        ckpts = sorted((out / "checkpoints").glob("*.ckpt"))
        mtimes = [p.stat().st_mtime_ns for p in ckpts]
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("metric,gap,category,value\n1,0,new,0.5\n")
        assert main(["experiment", "--config", str(ini),
                     "--baseline", str(baseline)]) == EXIT_OK
        assert [p.stat().st_mtime_ns for p in ckpts] == mtimes

    def test_resolved_config_records_stamp_and_digest(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert len(resolved["data_digest"]) == 64
        assert header_stamps(out) == [resolved["stamp"]] * 4


def report_bytes(out) -> dict:
    """name -> bytes of the gap, aggregate and plot files of a run."""
    return {p.name: p.read_bytes()
            for p in sorted([*out.glob("*.csv"), *out.glob("*.svg")])}


def strip_stamp(data, out):
    path = out / "checkpoints" / "new_2020.ckpt"
    tensors, meta = load_checkpoint(path)
    del meta["stamp"]
    save_checkpoint(path, tensors, meta)


def delete_checkpoint(data, out):
    (out / "checkpoints" / "new_2020.ckpt").unlink()


class TestTrainingWorkers:
    """``main(argv, workers=2)`` trains the toy run's four (year, category)
    jobs in two forked workers; a monkeypatch reaches them through fork."""

    def test_same_bytes_as_one_process(self, tmp_path, toy_data):
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            ini = write_experiment_ini(tmp_path / f"{workers}.ini", toy_data,
                                       out)
            assert main(["experiment", "--config", str(ini)],
                        workers=workers) == EXIT_OK
            runs[workers] = run_artifacts(out)
        # graph files, checkpoints and loss curves, score records, CSVs
        assert len(runs[1]) == 2 * 5 + 2 * 4 + 4 + 2 * 2
        assert runs[2] == runs[1]

    def test_numeric_error_in_worker_exits_3(self, tmp_path, toy_data,
                                             monkeypatch, caplog):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)

        def blow_up(*args, **kwargs):
            raise NumericError(f"non-finite loss in process {os.getpid()}")

        monkeypatch.setattr(trainer, "train_step", blow_up)
        with caplog.at_level(logging.ERROR):
            assert main(["experiment", "--config", str(ini)],
                        workers=2) == EXIT_NUMERIC
        pids = {int(pid) for pid in re.findall(r"in process (\d+)",
                                                caplog.text)}
        assert len(pids) == 1 and os.getpid() not in pids
        assert not (out / ".lock").exists()
        assert not list(out.glob("checkpoints/*.ckpt"))

    def test_killed_worker_exits_2_and_rerun_is_fresh(self, tmp_path,
                                                     toy_data, monkeypatch,
                                                     caplog):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        parent, train = os.getpid(), pipeline.train

        def die(*args, **kwargs):
            # each worker dies before it writes a file
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", die)
        with caplog.at_level(logging.ERROR):
            assert main(["experiment", "--config", str(ini)],
                        workers=2) == EXIT_DATA
        assert "a training worker died" in caplog.text
        assert not (out / ".lock").exists()
        monkeypatch.undo()
        assert main(["experiment", "--config", str(ini)], workers=2) == EXIT_OK
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini)]) == EXIT_OK
        assert run_artifacts(out) == run_artifacts(fresh)

    # None: an OS with no affinity call (it is Linux only) trains in-process
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, None])
    def test_run_trains_in_one_worker_per_cpu(self, tmp_path, toy_data,
                                              monkeypatch, cpus):
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data,
                                   tmp_path / "out")
        monkeypatch.setattr(sys, "argv", ["templink", "experiment",
                                          "--config", str(ini)])
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        pids, train = [], pipeline.train
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: pids.append(
            os.getpid()) or train(*a, **kw))
        assert cli.run() == EXIT_OK
        # a pool's workers append to their own copies of ``pids``
        assert pids == ([os.getpid()] * 4 if len(cpus or {0}) == 1 else [])


class TestEvalTrustsStamp:
    @pytest.mark.parametrize("edit, flags", [
        (edit_entities, []), (None, ["--seed", "5"]), (None, ["--years", "2019"]),
        (strip_stamp, []), (delete_checkpoint, []),
    ], ids=["edited_input", "other_seed", "year_subset", "pre_stamp_checkpoint",
            "missing_checkpoint"])
    def test_stale_checkpoints_exit_2_and_write_nothing(self, tmp_path, toy_data,
                                                        monkeypatch, edit, flags):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        before = report_bytes(out)
        if edit:
            edit(toy_data, out)
        loads = count_calls(monkeypatch, pipeline, "load_model")
        assert main(["eval", "--config", str(ini), *flags]) == EXIT_DATA
        # every stamp is read before any model is loaded
        assert loads == []
        assert report_bytes(out) == before
        assert not (out / ".lock").exists()

    def test_message_names_both_stamps(self, tmp_path, toy_data, caplog):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        trained = header_stamps(out)[0]
        argv = ["eval", "--config", str(ini), "--seed", "5"]
        assert main(argv) == EXIT_DATA
        cfg = pipeline_config(make_parser().parse_args(argv))
        run = cfg.stamp(pipeline.data_digest(cfg))
        path = out / "checkpoints" / "continual_2019.ckpt"
        assert (f"{path}: stamp {trained}, but the run's stamp is {run}; "
                "run `templink train`") in caplog.text

    def test_stamp_flags_reach_eval(self, tmp_path, toy_data):
        # --k shapes the stamp, so eval must take it to find the checkpoints
        # experiment trained; train then skips every one
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        flags = ["--config", str(ini), "--k", "4", "--min-count", "2",
                 "--max-count", "5"]
        assert main(["experiment", *flags]) == EXIT_OK
        before = report_bytes(out)
        ckpts = {p: p.stat().st_mtime_ns for p in out.glob("checkpoints/*.ckpt")}
        for path in out.glob("gap_matrix_*.csv"):
            path.unlink()
        assert main(["eval", *flags]) == EXIT_OK
        assert report_bytes(out) == before
        assert main(["train", *flags]) == EXIT_OK
        assert {p: p.stat().st_mtime_ns for p in ckpts} == ckpts

    def test_train_then_eval_equals_experiment(self, tmp_path, toy_data):
        runs = {}
        for name, commands in (("experiment", ["experiment"]),
                               ("train_eval", ["train", "eval"])):
            out = tmp_path / name
            ini = write_experiment_ini(tmp_path / f"{name}.ini", toy_data, out)
            for command in commands:
                assert main([command, "--config", str(ini)]) == EXIT_OK
            runs[name] = report_bytes(out)
        assert runs["experiment"] == runs["train_eval"] != {}


class TestEvalEncodesOnce:
    def test_one_pass_per_encoder_and_checkpoint(self, tmp_path, toy_data,
                                                 monkeypatch):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out,
                                   years="2019..2021")
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        drop_scores(out)
        means = count_calls(monkeypatch, tape, "mean_bags")
        packed = []

        class CountedBags(tape.Bags):
            def __init__(self, lists):
                packed.append(len(lists))
                super().__init__(lists)

        monkeypatch.setattr(tape, "Bags", CountedBags)
        assert main(["eval", "--config", str(ini)]) == EXIT_OK
        # 2 categories x 3 years of checkpoints, each encoder once
        assert len(means) == 2 * 3 * 2
        # the distinct entity and mention sequences of all test years
        assert len(packed) == 2
        # with every record current, nothing is encoded or packed
        means.clear()
        packed.clear()
        assert main(["eval", "--config", str(ini)]) == EXIT_OK
        assert (means, packed) == ([], [])

    def test_truncated_checkpoint_names_itself(self, tmp_path, toy_data,
                                               caplog):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        before = report_bytes(out)
        path = out / "checkpoints" / "continual_2019.ckpt"
        path.write_bytes(path.read_bytes()[:-100])
        name, rows, cols = read_meta(path)["manifest"][-1]
        assert main(["eval", "--config", str(ini)]) == EXIT_DATA
        assert (f"{path}: checkpoint ends inside tensor {name} "
                f"({rows} x {cols})") in caplog.text
        assert report_bytes(out) == before


# the toy run's checkpoints, in the order eval reads them
CKPTS = [f"{c}_{y}" for c in ("continual", "new") for y in (2019, 2020)]


def out_files(out) -> dict:
    """relative path -> (bytes, mtime) of every file under a run's output."""
    return {str(p.relative_to(out)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestScoreRecords:
    """Each checkpoint's row of its gap matrix is kept in
    ``scores/<category>_<year>.json``, current while the checkpoint's
    SHA-256, ``EVAL_FORMAT`` and the run's sorted years are unchanged."""

    def finished_run(self, tmp_path, toy_data, years="2019..2020"):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out, years)
        assert main(["experiment", "--config", str(ini)]) == EXIT_OK
        return out, ini

    def scored(self, monkeypatch, caplog, argv) -> list:
        """The checkpoint names ``argv`` loads; ``argv`` must exit 0 and log
        one scoring line per checkpoint."""
        loads = count_calls(monkeypatch, pipeline, "load_model")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="templink.pipeline"):
            assert main(argv) == EXIT_OK
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith(("scoring", "not scoring"))]
        assert len(lines) == len(CKPTS)
        monkeypatch.undo()
        return sorted(path.stem for path, _ in loads)

    @pytest.mark.parametrize("command", ["experiment", "eval"])
    def test_current_records_load_nothing(self, tmp_path, toy_data,
                                          monkeypatch, caplog, command):
        out, ini = self.finished_run(tmp_path, toy_data)
        before = out_files(out)
        calls = [count_calls(monkeypatch, module, name) for module, name in (
            (pipeline, "load_year_corpus"), (pipeline, "build_tokenizer"),
            (pipeline, "load_model"), (tape, "mean_bags"))]
        with caplog.at_level(logging.INFO, logger="templink.pipeline"):
            assert main([command, "--config", str(ini)]) == EXIT_OK
        assert calls == [[], [], [], []]
        after = out_files(out)
        reports = [*(f"{kind}_{c}.csv" for kind in ("gap_matrix", "aggregate")
                     for c in ("continual", "new")), "recall_vs_gap.svg"]
        for name in reports:
            assert after[name][0] == before[name][0], name
            assert after[name][1] > before[name][1], name
        assert {n: f for n, f in after.items() if n.startswith("scores/")} == {
            n: f for n, f in before.items() if n.startswith("scores/")}
        assert [r.getMessage() for r in caplog.records
                if "scoring" in r.getMessage()] == [
            f"not scoring {out / 'checkpoints' / name}.ckpt: record current"
            for name in CKPTS]

    def test_deleted_record_scores_only_its_checkpoint(self, tmp_path,
                                                       toy_data, monkeypatch,
                                                       caplog):
        out, ini = self.finished_run(tmp_path, toy_data)
        before = run_artifacts(out)
        record = out / "scores" / "new_2020.json"
        record.unlink()
        assert self.scored(monkeypatch, caplog,
                           ["eval", "--config", str(ini)]) == ["new_2020"]
        assert (f"scoring {out / 'checkpoints' / 'new_2020.ckpt'}: no record"
                in caplog.text)
        assert run_artifacts(out) == before

    def test_changed_payload_byte_makes_record_stale(self, tmp_path, toy_data,
                                                     monkeypatch, caplog):
        out, ini = self.finished_run(tmp_path, toy_data)
        path = out / "checkpoints" / "continual_2019.ckpt"
        stamp = read_meta(path)["stamp"]
        data = bytearray(path.read_bytes())
        data[-4] ^= 1  # the lowest mantissa bit of the last float32
        path.write_bytes(bytes(data))
        assert read_meta(path)["stamp"] == stamp
        assert self.scored(monkeypatch, caplog, ["eval", "--config", str(ini)]
                           ) == ["continual_2019"]
        assert f"scoring {path}: checkpoint digest changed" in caplog.text
        record = json.loads((out / "scores" / "continual_2019.json").read_text())
        assert record["checkpoint_sha256"] == hashlib.sha256(data).hexdigest()

    def test_format_bump_scores_every_checkpoint(self, tmp_path, toy_data,
                                                 monkeypatch, caplog):
        out, ini = self.finished_run(tmp_path, toy_data)
        before = report_bytes(out)
        old = evaluate.EVAL_FORMAT
        monkeypatch.setattr(evaluate, "EVAL_FORMAT", old + 1)
        assert self.scored(monkeypatch, caplog, ["eval", "--config", str(ini)]
                           ) == CKPTS
        for name in CKPTS:
            assert (f"scoring {out / 'checkpoints' / name}.ckpt: format "
                    f"{old} -> {old + 1}") in caplog.text
            record = json.loads((out / "scores" / f"{name}.json").read_text())
            assert record["eval_format"] == old + 1
        assert report_bytes(out) == before

    @pytest.mark.parametrize("edit, why", [
        (lambda text: text[:len(text) // 2], "unreadable record"),
        (lambda text: "[]", "unreadable record"),
        (lambda text: re.sub(r'("mention_count": \d+)', r"\1.0", text, 1),
         "unreadable record"),
        (lambda text: json.dumps(dict(json.loads(text), years=[2019])),
         "years [2019] -> [2019, 2020]"),
    ], ids=["truncated", "not_an_object", "float_count", "wrong_years"])
    def test_bad_record_is_scored_again(self, tmp_path, toy_data, monkeypatch,
                                        caplog, edit, why):
        out, ini = self.finished_run(tmp_path, toy_data)
        before = run_artifacts(out)
        record = out / "scores" / "new_2019.json"
        text = record.read_text()
        assert edit(text) != text
        record.write_text(edit(text))
        assert self.scored(monkeypatch, caplog, ["eval", "--config", str(ini)]
                           ) == ["new_2019"]
        assert (f"scoring {out / 'checkpoints' / 'new_2019.ckpt'}: {why}"
                in caplog.text)
        assert run_artifacts(out) == before

    def test_stamp_mismatch_reads_no_record(self, tmp_path, toy_data,
                                            monkeypatch):
        out, ini = self.finished_run(tmp_path, toy_data)
        before = out_files(out)
        reads = count_calls(monkeypatch, pipeline, "read_scores")
        assert main(["eval", "--config", str(ini), "--seed", "5"]) == EXIT_DATA
        assert reads == []
        assert out_files(out) == before

    def test_unsorted_years_same_bytes_from_records(self, tmp_path, toy_data,
                                                    monkeypatch, caplog):
        out, ini = self.finished_run(tmp_path, toy_data, years="2020,2019")
        scored = report_bytes(out)
        assert json.loads((out / "scores" / "new_2020.json").read_text())[
            "years"] == [2019, 2020]
        assert self.scored(monkeypatch, caplog,
                           ["experiment", "--config", str(ini)]) == []
        assert report_bytes(out) == scored

    def test_baseline_on_finished_run_loads_no_model(self, tmp_path, toy_data,
                                                     monkeypatch, caplog):
        # the baseline is not in the stamp, so adding one reads only records
        out, ini = self.finished_run(tmp_path, toy_data)
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("metric,gap,category,value\n1,0,new,0.5\n"
                            "16,1,continual,0.25\n")
        corpus = count_calls(monkeypatch, pipeline, "load_year_corpus")
        argv = ["--config", str(ini), "--baseline", str(baseline)]
        assert self.scored(monkeypatch, caplog, ["eval", *argv]) == []
        assert corpus == []
        fresh = tmp_path / "fresh"
        fresh_ini = write_experiment_ini(tmp_path / "fresh.ini", toy_data, fresh)
        assert main(["experiment", "--config", str(fresh_ini),
                     "--baseline", str(baseline)]) == EXIT_OK
        boosts = {p.name: p.read_bytes() for p in out.glob("boost_*.csv")}
        assert sorted(boosts) == ["boost_continual.csv", "boost_new.csv"]
        assert boosts == {p.name: p.read_bytes()
                          for p in fresh.glob("boost_*.csv")}


class TestReadersHoldLock:
    def test_eval_writes_nothing_while_locked(self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["train", "--config", str(ini)]) == EXIT_OK
        (out / ".lock").write_text("12345")
        before = sorted(p.name for p in out.iterdir())
        assert main(["eval", "--config", str(ini)]) == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == before

    def test_report_table_writes_nothing_while_locked(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("12345")
        code = main(["report", "--out-dir", str(out),
                     "--table", str(bundled_results_path())])
        assert code == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == [".lock"]


class TestReport:
    def test_bundled_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["report", "--out-dir", str(out),
                     "--table", str(bundled_results_path())])
        assert code == EXIT_OK
        result = json.loads((out / "table_boost.json").read_text())
        assert set(result) == {"boost_cells", "recomputed_average_boost",
                               "printed_average_boost"}
        assert result["printed_average_boost"]["gap0|continual"] == pytest.approx(
            16.88, abs=0.01)
        stdout = capsys.readouterr().out
        assert "ave boost continual gap 0" in stdout

    def test_bad_table_is_data_error(self, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_text("wrong,header\n")
        code = main(["report", "--out-dir", str(tmp_path / "out"),
                     "--table", str(bad)])
        assert code == EXIT_DATA

    def test_table_directory_is_data_error(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--out-dir", str(out),
                     "--table", str(tmp_path)]) == EXIT_DATA
        assert not out.exists()


NOT_READ = [("report", "--data-dir", "d"), ("report", "--years", "2019"),
            ("report", "--seed", "3"), ("report", "--k", "4"),
            ("report", "--min-count", "2"), ("report", "--max-count", "5"),
            ("report", "--mode", "forward_only"),
            ("report", "--baseline", "b.csv"),
            ("report", "--config", "run.ini"), ("ingest", "--out-dir", "o"),
            ("ingest", "--years", "2019"), ("ingest", "--seed", "3"),
            ("ingest", "--config", "run.ini"),
            ("eval", "--mode", "forward_only"),
            ("experiment", "--mode", "forward_only")]


class TestEachCommandTakesWhatItReads:
    def test_help_lists_the_flags_each_command_reads(self, capsys):
        run = ["--config", "--data-dir", "--out-dir", "--years", "--seed",
               "--k", "--min-count", "--max-count"]
        want = {"ingest": ["--data-dir", "--year", "--entities", "--mentions",
                           "--test-mentions", "--triples"],
                "build-graphs": run, "train": run,
                "eval": run + ["--baseline"],
                "experiment": run + ["--baseline"],
                "report": ["--out-dir", "--table"]}
        for command, flags in want.items():
            assert main([command, "--help"]) == EXIT_OK
            text = capsys.readouterr().out
            assert re.findall(r"^  (--[\w-]+)", text, re.M) == flags, command

    @pytest.mark.parametrize("argv", [*NOT_READ, ("report",)],
                             ids=[f"{a[0]}{a[1]}" for a in NOT_READ]
                             + ["report_without_table"])
    def test_flag_not_read_is_usage_error(self, tmp_path, toy_data,
                                          monkeypatch, argv):
        # refused before any work: nothing is written, and report without
        # a table runs no eval; --config names a config that would load
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        src = tmp_path / "ents.jsonl"
        src.write_text('{"qid": "Q1", "title": "A"}\n')
        table = [] if argv == ("report",) else [
            "--table", str(bundled_results_path())]
        rest = {"report": ["--out-dir", str(out), *table],
                "ingest": ["--data-dir", str(out), "--year", "2020",
                           "--entities", str(src)],
                "eval": ["--config", str(ini)],
                "experiment": ["--config", str(ini)]}[argv[0]]
        assert main([*argv, *rest]) == EXIT_USAGE
        assert not out.exists()


class TestBaselineReadFirst:
    def test_missing_baseline_stops_experiment_before_any_work(
            self, tmp_path, toy_data):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["experiment", "--config", str(ini), "--baseline",
                     str(tmp_path / "missing.csv")]) == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("baseline", ["malformed", "directory"])
    def test_unreadable_baseline_stops_eval_before_any_work(
            self, tmp_path, toy_data, baseline):
        out = tmp_path / "out"
        ini = write_experiment_ini(tmp_path / "run.ini", toy_data, out)
        assert main(["train", "--config", str(ini)]) == EXIT_OK
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        path = tmp_path / "baseline.csv"
        if baseline == "directory":
            path.mkdir()
        else:
            path.write_text("metric,gap,category,value\n1,zero,new,0.5\n")
        assert main(["eval", "--config", str(ini),
                     "--baseline", str(path)]) == EXIT_DATA
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


# Runs ``templink.cli.main(argv, workers)`` in a fresh interpreter, given
# workers then argv; the last line it prints is the exit code and the
# modules loaded.
MODULE_PROBE = """
import json, sys
from templink.cli import main
code = main(sys.argv[2:], workers=int(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def child_env(**variables) -> dict:
    """This process's environment with ``variables`` set and templink's
    sources on PYTHONPATH."""
    src = str(Path(textenc.__file__).parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def modules_after(argv, workers=1) -> list:
    run = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, str(workers), *argv],
        capture_output=True, text=True, env=child_env(), check=True)
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == EXIT_OK, run.stderr
    return loaded


def scipy_modules_after(argv) -> list:
    return [m for m in modules_after(argv) if m.partition(".")[0] == "scipy"]


class TestOnlyTrainingImportsScipy:
    def test_importing_the_cli_loads_neither_numpy_random_nor_scipy(self):
        # resume and eval draw nothing; numpy.random alone adds about 10 ms
        # to every command
        run = subprocess.run(
            [sys.executable, "-c", "import json, sys, templink.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m in "
             "('numpy.random', 'scipy') or m.startswith(('numpy.random.', "
             "'scipy.')))))"],
            capture_output=True, text=True, env=child_env(), check=True)
        assert json.loads(run.stdout) == []

    def test_commands_without_training_load_no_scipy(self, tmp_path, toy_data):
        # criterion 9's toy config; the cold run shows the probe sees scipy
        ini = str(write_experiment_ini(tmp_path / "run.ini", toy_data,
                                       tmp_path / "out", years="2019..2022"))
        assert "scipy.sparse" in scipy_modules_after(
            ["experiment", "--config", ini])
        for argv in (["--version"], ["experiment", "--config", ini],
                     ["eval", "--config", ini],
                     ["report", "--out-dir", str(tmp_path / "out"),
                      "--table", str(bundled_results_path())],
                     ["build-graphs", "--config", ini]):
            assert scipy_modules_after(argv) == [], argv

    def test_commands_without_training_start_no_pool(self, tmp_path,
                                                     toy_data):
        # concurrent.futures.process alone takes about 18 ms to import, and
        # the cli itself loads neither package
        assert not [m for m in modules_after(["--version"], 2)
                    if m.partition(".")[0] in ("multiprocessing", "concurrent")]
        ini = str(write_experiment_ini(tmp_path / "run.ini", toy_data,
                                       tmp_path / "out", years="2019..2022"))
        pool = "concurrent.futures.process"
        assert pool in modules_after(["experiment", "--config", ini], 2)
        for argv in (["experiment", "--config", ini],
                     ["eval", "--config", ini],
                     ["report", "--out-dir", str(tmp_path / "out"),
                      "--table", str(bundled_results_path())],
                     ["build-graphs", "--config", ini]):
            assert pool not in modules_after(argv, 2), argv


def perfbench_year_2015(monkeypatch, tmp_path, **spec):
    """Write year 2015 of a perfbench workload's seed-1 corpus and its run
    config ``run.ini`` into ``tmp_path``: ``spec`` is the workload's
    CorpusSpec in perfbench/run.py but ``years``, cut to one (generate
    draws 2015 first). ``run`` is not imported: it sets BLAS variables for
    the process that imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus = importlib.import_module("corpus")
    corpus.generate(corpus.CorpusSpec(years=1, **spec), 1, tmp_path)
    return tmp_path / "run.ini"


class TestBlasThreads:
    def test_checkpoints_equal_at_one_and_two_threads(self, tmp_path,
                                                      monkeypatch):
        # year 2015 of the graph_build workload's seed-1 corpus. Its
        # products are above OpenBLAS's threading threshold, where a
        # threaded gemm sums in another order
        perfbench_year_2015(
            monkeypatch, tmp_path, entities=1200, new_share=0.1, words=3000,
            zipf=1.0, topic_share=0.8, desc_len=15, triples_per_entity=8,
            train_mentions=512, test_mentions=200, context_len=4,
            min_count=4, max_count=60, epochs=2, batch_size=128)
        ckpts = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = child_env(OPENBLAS_NUM_THREADS=threads,
                            OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "templink.cli", "train",
                            "--config", str(tmp_path / "run.ini"),
                            "--out-dir", str(out)],
                           capture_output=True, env=env, check=True)
            ckpts[threads] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out / "checkpoints").glob("*.ckpt")}
        assert sorted(ckpts["1"]) == ["continual_2015.ckpt", "new_2015.ckpt"]
        assert ckpts["1"] == ckpts["2"]


class TestVocabularyScaleGolden:
    def test_train_matches_golden_digests(self, tmp_path, monkeypatch):
        # year 2015 of the text_train workload's seed-1 corpus: embedding
        # tables of 17,019 rows, of which each step's gradient touches a
        # small part. The checkpoints and loss curves of
        # ``templink train`` must keep the digests of this checkpoint
        # format (tests/golden/README.md)
        ini = perfbench_year_2015(
            monkeypatch, tmp_path, entities=400, new_share=0.25,
            words=100000, zipf=0.6, topic_share=0.5, desc_len=60,
            triples_per_entity=3, train_mentions=400, test_mentions=300,
            context_len=12, min_count=5, max_count=60)
        out = tmp_path / "out"
        subprocess.run([sys.executable, "-m", "templink.cli", "train",
                        "--config", str(ini), "--out-dir", str(out)],
                       capture_output=True, env=child_env(), check=True)
        golden = json.loads((GOLDEN / "text_train_2015.json").read_text())
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out / "checkpoints").iterdir()} == golden[
                    str(trainer.CHECKPOINT_FORMAT)]
        # the kNN graph over the year's description embedding: a
        # vocabulary-scale check of each token's PCG64 draw
        assert hashlib.sha256((out / "graphs" / "2015" / "feature.adj")
                              .read_bytes()).hexdigest() == (
            "c59ae80af00bef5bfd5c246333fc7688ecfc27bc4b6b3c0f03740a93329542a2")
        manifest = read_meta(out / "checkpoints" / "new_2015.ckpt")["manifest"]
        assert {n: r for n, r, _ in manifest if n.endswith(".emb")} == {
            "e_enc.emb": 17019, "m_enc.emb": 17019}
