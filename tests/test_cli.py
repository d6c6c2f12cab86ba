import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from framedfile import blocks, edit_json, edit_values, replace
from dfuse.checkpointio import Checkpoint, load_checkpoint, save_checkpoint
from dfuse.cli import _sweep_summary, cli_dispatch
from dfuse.corpus import load_corpus
from dfuse.encoder import ParamVector
from dfuse.errors import DfuseError, UsageError
from dfuse.evaluation import SUMMARY_METRICS, parse_report_records
from dfuse.fileio import sha256_file

TINY_CORPUS_ARGS = [
    "--n-concepts", "4", "--latent-dim", "6", "--d-v", "8", "--d-t", "8",
    "--frames-per-video", "3", "--n-labeled-train", "24", "--n-labeled-val", "8",
    "--n-unlabeled", "16", "--n-eval", "16",
]


def gen_tiny_corpus(path, seed="5", extra=()):
    args = ["gen-corpus", *TINY_CORPUS_ARGS, "--out", str(path), *extra]
    if seed is not None:
        args += ["--seed", seed]
    assert cli_dispatch(args) == 0
    return path


class TestDispatchBasics:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert cli_dispatch([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "gen-corpus" in capsys.readouterr().out

    def test_missing_required_option(self, capsys):
        assert cli_dispatch(["gen-corpus"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_config_file_names_path(self, capsys, tmp_path):
        code = cli_dispatch(["gen-corpus", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert str(tmp_path / "nope.cfg") in capsys.readouterr().err


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "# corpus shape\n"
            "n_concepts = 4\nlatent_dim = 6\nd_v = 8\nd_t = 8\n"
            "frames_per_video = 3\nn_labeled_train = 24\nn_labeled_val = 8\n"
            "n_unlabeled = 16\nn_eval = 16\nseed = 5\n"
            f"out = {tmp_path / 'corpus.jsonl'}\n"
        )
        assert cli_dispatch(["gen-corpus", "--config", str(cfg)]) == 0
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        assert corpus.synth.n_concepts == 4 and corpus.synth.seed == 5

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed = 5\n")
        a = gen_tiny_corpus(tmp_path / "a.jsonl", seed="5")
        args = ["gen-corpus", *TINY_CORPUS_ARGS, "--config", str(cfg),
                "--seed", "9", "--out", str(tmp_path / "b.jsonl")]
        assert cli_dispatch(args) == 0
        assert load_corpus(tmp_path / "b.jsonl").synth.seed == 9
        assert sha256_file(a) != sha256_file(tmp_path / "b.jsonl")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DFUSE_SEED", "21")
        implicit = gen_tiny_corpus(tmp_path / "env.jsonl", seed=None)

        monkeypatch.delenv("DFUSE_SEED")
        explicit = gen_tiny_corpus(tmp_path / "flag.jsonl", seed="21")
        assert sha256_file(implicit) == sha256_file(explicit)

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DFUSE_SEED", "21")
        path = gen_tiny_corpus(tmp_path / "c.jsonl", seed="5")
        assert load_corpus(path).synth.seed == 5

    def test_bad_typed_value(self, capsys):
        assert cli_dispatch(["gen-corpus", "--seed", "not-a-number", "--out", "x"]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,lineno,reason", [
        pytest.param("gen-corpus", b"seed = 5\nmystery_knob = 3\n", 2,
                     "unknown config key 'mystery_knob' for this command", id="unknown-key"),
        pytest.param("gen-corpus", b"seed 5\n", 1, "expected 'key = value'", id="no-equals"),
        pytest.param("gen-corpus", b"# corpus shape\n = 3\n", 2, "expected 'key = value'",
                     id="empty-key"),
        pytest.param("gen-corpus", b"seed = five\n", 1,
                     "bad value for seed: invalid literal for int() with base 10: 'five'",
                     id="bad-value"),
        pytest.param("gen-corpus", b"seed = 5\n\nseed = 7\n", 3,
                     "config key 'seed' is already set on line 1", id="duplicate-key"),
        pytest.param("train-student", b"lambda = 0.5\nlambda = 0.5\n", 2,
                     "config key 'lambda' is already set on line 1", id="duplicate-lambda"),
        pytest.param("gen-corpus", b"seed = 5\n\xff = 3\n", 2, "not UTF-8 text", id="not-utf8"),
    ])
    def test_config_file_error_names_file_and_line(self, tmp_path, monkeypatch, capsys,
                                                   command, text, lineno, reason):
        import dfuse.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("an input was read before the config file was checked")

        for name in ("gen_corpus", "load_corpus", "load_checkpoint"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        required = ["--out", str(tmp_path / "out")]
        if command == "train-student":
            required += ["--teacher", "t.ckpt", "--corpus", "c.jsonl"]
        assert cli_dispatch([command, "--config", str(cfg), *required]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: line {lineno}: {reason}\n"
        assert list(tmp_path.iterdir()) == [cfg]


class _Stop(Exception):
    """Raised by a stand-in to end a command before it does any work."""


def _resolved_by(argv) -> dict:
    """The option values ``argv`` resolves to, keyed as its manifest keys them."""
    import dfuse.cli as cli

    real, seen = cli._resolve, []

    def resolve(*args):
        seen.append(real(*args))
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_resolve", resolve)
        with pytest.raises(_Stop):
            cli_dispatch(argv)
    return {key.rstrip("_"): value for key, value in seen[0].items()}


def _typed(mapping: dict) -> dict:
    # 0.01 == 0 is false but False == 0 is true: compare types as well as values
    return {key: (type(value), value) for key, value in mapping.items()}


_DEFAULT_TEMPLATE = "a video of a person {c}"
_TRAIN_DEFAULTS = {"batch_size_labeled": 32, "eval_every": 100, "weight_decay": 0.01,
                   "seed": 0, "config_file": None}

# Each writing command given only its required options, and what it resolves to.
RESOLVED_DEFAULTS = {
    "gen-corpus": (["--out", "o"], {
        "n_concepts": 64, "latent_dim": 16, "d_v": 32, "d_t": 32, "frames_per_video": 8,
        "noise_sigma": 0.05, "concept_jitter": 0.5, "prompt_jitter": 0.25,
        "video_domain_shift": 0.4, "n_labeled_train": 512, "n_labeled_val": 128,
        "n_unlabeled": 4096, "n_eval": 512, "identity_maps": False, "seed": 0,
        "out": "o", "config_file": None,
    }),
    "pretrain-teacher": (["--corpus", "c", "--out", "o"], {
        "hidden_dim": 32, "embed_dim": 16, "n_frames": 4, "lr": 3e-3, "max_steps": 1500,
        **_TRAIN_DEFAULTS, "sigma": 0.05, "corpus": "c", "out": "o",
    }),
    "train-student": (["--teacher", "t", "--corpus", "c", "--out", "o"], {
        "sigma": 0.05, "lambda": 0.999, "lr": 3e-5, "max_steps": 2000, **_TRAIN_DEFAULTS,
        "batch_size_unlabeled": 32, "distill_on_labeled": False, "teacher": "t", "corpus": "c",
        "out": "o",
    }),
    "fuse": (["--teacher", "t", "--student", "s", "--out", "o"], {
        "alpha": 0.4, "teacher": "t", "student": "s", "out": "o", "config_file": None,
    }),
    "sweep-alpha": (["--teacher", "t", "--student", "s", "--corpus", "c", "--out", "o"], {
        "alphas": "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "impact_alpha": 0.4,
        "templates": _DEFAULT_TEMPLATE, "teacher": "t", "student": "s", "corpus": "c",
        "out": "o", "config_file": None,
    }),
    **{command: (["--ckpt", "k", "--corpus", "c", "--out", "o"], {
        "templates": _DEFAULT_TEMPLATE, "ckpt": "k", "corpus": "c", "out": "o",
        "config_file": None,
    }) for command in ("eval-retrieval", "eval-classify")},
    "report-class-delta": (["--report-a", "a", "--report-b", "b", "--out", "o"], {
        "limit": 0, "report_a": "a", "report_b": "b", "out": "o", "config_file": None,
    }),
    "report-rank-dist": (["--report-a", "a", "--report-b", "b", "--out", "o"], {
        "report_a": "a", "report_b": "b", "out": "o", "config_file": None,
    }),
}


def _other_raw_value(default) -> str:
    """A config/flag string that resolves to something other than ``default``."""
    if isinstance(default, bool):
        return "true"
    if isinstance(default, (int, float)):
        return repr(default + 1)
    return "changed"


class TestConfigSchema:
    """Pins every writing command's options, defaults and built configs, so
    that the way the CLI derives them can change without changing them."""

    @pytest.fixture(autouse=True)
    def _no_env_seed(self, monkeypatch):
        monkeypatch.delenv("DFUSE_SEED", raising=False)

    @pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
    def test_defaults_resolve_exactly(self, command):
        required, expected = RESOLVED_DEFAULTS[command]
        assert _typed(_resolved_by([command, *required])) == _typed(expected)

    @pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
    def test_config_file_key_equals_flag(self, tmp_path, command):
        required, expected = RESOLVED_DEFAULTS[command]
        required_pairs = dict(zip(required[::2], required[1::2]))
        for key, default in expected.items():
            if key == "config_file":
                continue
            flag = "--" + key.replace("_", "-")
            raw = _other_raw_value(default)
            others = [tok for f, v in required_pairs.items() if f != flag for tok in (f, v)]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {raw}\n")
            from_file = _resolved_by([command, *others, "--config", str(cfg)])
            from_flag = _resolved_by([command, *others, flag, raw])
            assert _typed({key: from_file[key]}) == _typed({key: from_flag[key]})
            assert from_flag[key] != default, key

    def test_built_configs(self, mini_pipeline, monkeypatch, tmp_path):
        import dfuse.cli as cli
        from dfuse.corpus import SynthConfig
        from dfuse.encoder import EncoderConfig
        from dfuse.fusion import FusionConfig
        from dfuse.losses import LossConfig
        from dfuse.training import TrainConfig

        config_types = (SynthConfig, EncoderConfig, TrainConfig, LossConfig, FusionConfig)

        def built(work, argv):
            seen = []

            def stand_in(*args, **kwargs):
                seen.extend((type(a).__name__, _typed(dataclasses.asdict(a)))
                            for a in args if isinstance(a, config_types))
                seen.extend((name, _typed({name: value})) for name, value in kwargs.items())
                raise _Stop

            monkeypatch.setattr(cli, work, stand_in)
            with pytest.raises(_Stop):
                cli_dispatch(argv)
            return seen

        root, images, videos = mini_pipeline
        out = str(tmp_path / "out")
        train = {"lr": 3e-5, "batch_size_labeled": 32, "batch_size_unlabeled": 32,
                 "max_steps": 2000, "eval_every": 100, "seed": 0, "weight_decay": 0.01,
                 "betas": (0.9, 0.999), "eps": 1e-8, "distill_on_labeled": False}
        assert built("gen_corpus", ["gen-corpus", "--out", out]) == [
            ("SynthConfig", _typed({
                "n_concepts": 64, "latent_dim": 16, "d_v": 32, "d_t": 32,
                "frames_per_video": 8, "noise_sigma": 0.05, "concept_jitter": 0.5,
                "prompt_jitter": 0.25, "video_domain_shift": 0.4, "n_labeled_train": 512,
                "n_labeled_val": 128, "n_unlabeled": 4096, "n_eval": 512, "seed": 0,
                "identity_maps": False})),
        ]
        assert built("pretrain_teacher", [
            "pretrain-teacher", "--corpus", str(images), "--out", out]) == [
            ("EncoderConfig", _typed({"input_dim_video": 8, "input_dim_text": 8,
                                      "hidden_dim": 32, "embed_dim": 16, "n_frames": 4,
                                      "seed": 0})),
            ("TrainConfig", _typed(train | {"lr": 3e-3, "max_steps": 1500})),
            ("sigma", _typed({"sigma": 0.05})),
            ("log", _typed({"log": print})),
        ]
        assert built("train_student", [
            "train-student", "--teacher", str(root / "teacher.ckpt"), "--corpus", str(videos),
            "--out", out]) == [
            ("EncoderConfig", _typed({"input_dim_video": 8, "input_dim_text": 8,
                                      "hidden_dim": 10, "embed_dim": 6, "n_frames": 4,
                                      "seed": 5})),
            ("LossConfig", _typed({"sigma": 0.05, "lambda_": 0.999})),
            ("TrainConfig", _typed(train)),
            ("log", _typed({"log": print})),
        ]
        assert built("fuse_weights", [
            "fuse", "--teacher", str(root / "teacher.ckpt"),
            "--student", str(root / "student.ckpt"), "--out", out]) == [
            ("FusionConfig", _typed({"alpha": 0.4})),
        ]
        assert list(tmp_path.iterdir()) == []


# Each subcommand's flags as its --help lists them: metavar, then default or (required).
HELP_FLAGS = {
    "gen-corpus": {
        "--n-concepts": "INT [64]", "--latent-dim": "INT [16]", "--d-v": "INT [32]",
        "--d-t": "INT [32]", "--frames-per-video": "INT [8]", "--noise-sigma": "FLOAT [0.05]",
        "--concept-jitter": "FLOAT [0.5]", "--prompt-jitter": "FLOAT [0.25]",
        "--video-domain-shift": "FLOAT [0.4]", "--n-labeled-train": "INT [512]",
        "--n-labeled-val": "INT [128]", "--n-unlabeled": "INT [4096]", "--n-eval": "INT [512]",
        "--identity-maps": "BOOL [False]", "--seed": "INT [0]", "--out": "STR (required)",
    },
    "pretrain-teacher": {
        "--hidden-dim": "INT [32]", "--embed-dim": "INT [16]", "--n-frames": "INT [4]",
        "--lr": "FLOAT [0.003]", "--max-steps": "INT [1500]",
        "--batch-size-labeled": "INT [32]", "--eval-every": "INT [100]",
        "--weight-decay": "FLOAT [0.01]", "--sigma": "FLOAT [0.05]", "--seed": "INT [0]",
        "--corpus": "STR (required)", "--out": "STR (required)",
    },
    "train-student": {
        "--sigma": "FLOAT [0.05]", "--lambda": "FLOAT [0.999]", "--lr": "FLOAT [3e-05]",
        "--max-steps": "INT [2000]", "--batch-size-labeled": "INT [32]",
        "--batch-size-unlabeled": "INT [32]", "--eval-every": "INT [100]",
        "--weight-decay": "FLOAT [0.01]", "--distill-on-labeled": "BOOL [False]",
        "--seed": "INT [0]", "--teacher": "STR (required)", "--corpus": "STR (required)",
        "--out": "STR (required)",
    },
    "fuse": {
        "--alpha": "FLOAT [0.4]", "--teacher": "STR (required)",
        "--student": "STR (required)", "--out": "STR (required)",
    },
    "sweep-alpha": {
        "--alphas": "STR [0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0]",
        "--impact-alpha": "FLOAT [0.4]", "--templates": f"STR [{_DEFAULT_TEMPLATE}]",
        "--teacher": "STR (required)", "--student": "STR (required)",
        "--corpus": "STR (required)", "--out": "STR (required)",
    },
    **{command: {
        "--templates": f"STR [{_DEFAULT_TEMPLATE}]", "--ckpt": "STR (required)",
        "--corpus": "STR (required)", "--out": "STR (required)",
    } for command in ("eval-retrieval", "eval-classify")},
    "report-class-delta": {
        "--limit": "INT [0]", "--report-a": "STR (required)", "--report-b": "STR (required)",
        "--out": "STR (required)",
    },
    "report-rank-dist": {
        "--report-a": "STR (required)", "--report-b": "STR (required)",
        "--out": "STR (required)",
    },
    "gradcheck": {"--trials": "INT [20]", "--seed": "INT [20240]"},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_subcommand_help_lists_its_flags(command, monkeypatch, capsys):
    import re

    monkeypatch.setenv("COLUMNS", "200")
    assert cli_dispatch([command, "--help"]) == 0
    out = capsys.readouterr().out
    listed = {}
    for entry in re.split(r"\n(?=  -)", out.split("\noptions:\n", 1)[1]):
        flag, metavar, *words = entry.split()
        if flag.startswith("--"):
            tail = re.search(r"(\(required\)|\[[^\[\]]*\])$", " ".join(words))
            listed[flag] = metavar + (" " + tail.group(1) if tail else "")
    assert listed == {"--config": "CONFIG", **HELP_FLAGS[command]}

def _flip_bit(data, split):
    _, payload, start = blocks(data)[f"{split} video features"]
    at = start + 8 + len(payload) // 2
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


# Faults of a split's video blocks in a corpus file, each caught by a
# different check; tiny video records are 3 frames of 8 features.
CORPUS_EDITS = {
    "non-finite-feature": lambda data, s: edit_values(data, f"{s} video features",
                                                      lambda v: v.__setitem__(30, np.nan)),
    "row-count": lambda data, s: replace(data, f"{s} video features",
                                         blocks(data)[f"{s} video features"][1][24 * 8:]),
    "flipped-bit": _flip_bit,
    "truncated": lambda data, s: data[:blocks(data)[f"{s} video features"][2] + 20],
    "header-split-size": lambda data, s: edit_json(
        data, "header", lambda h: h["synth"].update({f"n_{s.replace('-', '_')}": 1})),
}


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """End-to-end CLI run at miniature scale; shared by the CLI tests."""
    root = tmp_path_factory.mktemp("mini")
    images = root / "images.jsonl"
    videos = root / "videos.jsonl"
    args = ["gen-corpus", *TINY_CORPUS_ARGS, "--frames-per-video", "1",
            "--video-domain-shift", "0", "--n-labeled-train", "48",
            "--n-unlabeled", "0", "--seed", "5", "--out", str(images)]
    assert cli_dispatch(args) == 0
    gen_tiny_corpus(videos, seed="5")
    assert cli_dispatch([
        "pretrain-teacher", "--corpus", str(images), "--hidden-dim", "10",
        "--embed-dim", "6", "--lr", "1e-2", "--max-steps", "30",
        "--batch-size-labeled", "8", "--eval-every", "10", "--seed", "5",
        "--out", str(root / "teacher.ckpt"),
    ]) == 0
    assert cli_dispatch([
        "train-student", "--teacher", str(root / "teacher.ckpt"),
        "--corpus", str(videos), "--max-steps", "20", "--eval-every", "5",
        "--batch-size-labeled", "4", "--batch-size-unlabeled", "4",
        "--lr", "1e-3", "--seed", "5", "--out", str(root / "student.ckpt"),
    ]) == 0
    return root, images, videos


class TestPipelineCommands:
    def test_manifests_written_with_checksums(self, mini_pipeline):
        root, images, videos = mini_pipeline
        manifest = json.loads((root / "teacher.ckpt.manifest.json").read_text())
        assert manifest["command"] == "pretrain-teacher"
        assert manifest["inputs"][str(images)] == sha256_file(images)
        assert manifest["outputs"] == ["teacher.ckpt"]
        assert manifest["config"]["seed"] == 5

    def test_student_checkpoint_loads(self, mini_pipeline):
        root, _, _ = mini_pipeline
        ckpt = load_checkpoint(root / "student.ckpt")
        assert ckpt.loss_cfg.lambda_ == 0.999
        assert np.isfinite(ckpt.val_loss)

    def test_fuse_endpoints_through_cli(self, mini_pipeline):
        root, _, videos = mini_pipeline
        for alpha, reference in (("0", "teacher.ckpt"), ("1", "student.ckpt")):
            fused_path = root / f"fused{alpha}.ckpt"
            assert cli_dispatch([
                "fuse", "--teacher", str(root / "teacher.ckpt"),
                "--student", str(root / "student.ckpt"),
                "--alpha", alpha, "--out", str(fused_path),
            ]) == 0
            assert cli_dispatch([
                "eval-retrieval", "--ckpt", str(fused_path), "--corpus", str(videos),
                "--out", str(root / f"rep_fused{alpha}"),
            ]) == 0
            assert cli_dispatch([
                "eval-retrieval", "--ckpt", str(root / reference), "--corpus", str(videos),
                "--out", str(root / f"rep_{reference.split('.')[0]}"),
            ]) == 0
            fused_rep = (root / f"rep_fused{alpha}.jsonl").read_bytes()
            ref_rep = (root / f"rep_{reference.split('.')[0]}.jsonl").read_bytes()
            assert fused_rep == ref_rep

    def test_fuse_alpha_out_of_range(self, mini_pipeline, capsys):
        root, _, _ = mini_pipeline
        code = cli_dispatch([
            "fuse", "--teacher", str(root / "teacher.ckpt"),
            "--student", str(root / "student.ckpt"),
            "--alpha", "1.5", "--out", str(root / "bad.ckpt"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command", ["fuse", "sweep-alpha"])
    def test_fusion_needs_equal_configs_up_to_seed(self, mini_pipeline, tmp_path, capsys,
                                                   command):
        root, _, videos = mini_pipeline
        student = load_checkpoint(root / "student.ckpt")

        def student_with(**changes):
            path = tmp_path / f"student-{'-'.join(changes)}.ckpt"
            save_checkpoint(path, Checkpoint(
                dataclasses.replace(student.enc_cfg, **changes), student.loss_cfg,
                student.params, student.step, student.val_loss,
            ))
            return path

        def run(student_path, out):
            args = [command, "--teacher", str(root / "teacher.ckpt"),
                    "--student", str(student_path), "--out", str(tmp_path / out)]
            if command == "sweep-alpha":
                args += ["--corpus", str(videos), "--alphas", "0,1"]
            return cli_dispatch(args)

        # Same tensor layout, different frame count: fusing would mix two models.
        capsys.readouterr()
        assert run(student_with(n_frames=student.enc_cfg.n_frames + 1), "frames") == 1
        assert capsys.readouterr().err == (
            "error: teacher and student encoder architectures differ; cannot fuse\n"
        )
        assert run(student_with(seed=student.enc_cfg.seed + 1), "seed") == 0

    def test_eval_classify_and_reports(self, mini_pipeline):
        root, _, videos = mini_pipeline
        assert cli_dispatch([
            "eval-classify", "--ckpt", str(root / "teacher.ckpt"),
            "--corpus", str(videos), "--out", str(root / "cls_teacher"),
        ]) == 0
        assert cli_dispatch([
            "eval-classify", "--ckpt", str(root / "student.ckpt"),
            "--corpus", str(videos), "--out", str(root / "cls_student"),
        ]) == 0
        with open(root / "cls_teacher.jsonl") as fh:
            parsed = parse_report_records(fh)
        assert parsed.summary["top5"] >= parsed.summary["top1"]

        assert cli_dispatch([
            "report-class-delta", "--report-a", str(root / "cls_student.jsonl"),
            "--report-b", str(root / "cls_teacher.jsonl"),
            "--out", str(root / "delta.tsv"),
        ]) == 0
        lines = (root / "delta.tsv").read_text().strip().split("\n")
        assert lines[0] == "class\tacc_a\tacc_b\tdelta"
        assert len(lines) == 5  # 4 classes

        assert cli_dispatch([
            "report-rank-dist", "--report-a", str(root / "cls_student.jsonl"),
            "--report-b", str(root / "cls_teacher.jsonl"),
            "--out", str(root / "dist.tsv"),
        ]) == 0
        rows = (root / "dist.tsv").read_text().strip().split("\n")[1:]
        ranks_a = [int(r.split("\t")[1]) for r in rows]
        assert ranks_a == sorted(ranks_a)

    def test_report_with_non_numeric_accuracy_is_usage_error(self, mini_pipeline, tmp_path,
                                                              capsys):
        root, _, videos = mini_pipeline
        out = tmp_path / "cls"
        assert cli_dispatch(["eval-classify", "--ckpt", str(root / "teacher.ckpt"),
                             "--corpus", str(videos), "--out", str(out)]) == 0
        lines = (tmp_path / "cls.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["accuracy"] = "x"
        lines[1] = json.dumps(record)
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_dispatch(["report-class-delta", "--report-a", str(tmp_path / "bad.jsonl"),
                             "--report-b", str(tmp_path / "cls.jsonl"),
                             "--out", str(tmp_path / "delta.tsv")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'bad.jsonl'}: line 2: malformed per_class record: "
                       "accuracy must be a number, got 'x'\n")
        assert not (tmp_path / "delta.tsv").exists()

    def test_report_nested_too_deeply_is_usage_error(self, mini_pipeline, tmp_path, capsys):
        root, _, _ = mini_pipeline
        bad = tmp_path / "deep.jsonl"
        bad.write_text("[" * 100_000 + "\n")
        capsys.readouterr()
        assert cli_dispatch(["report-rank-dist", "--report-a", str(bad),
                             "--report-b", str(root / "cls_teacher.jsonl"),
                             "--out", str(tmp_path / "dist.tsv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 1: invalid JSON (nested too deeply)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.jsonl"]

    @staticmethod
    def _bad_report(mini_pipeline, tmp_path, edit) -> tuple[Path, Path]:
        """``(good, bad)``: a classify report and a copy whose lines ``edit`` changed."""
        root, _, videos = mini_pipeline
        assert cli_dispatch(["eval-classify", "--ckpt", str(root / "teacher.ckpt"),
                             "--corpus", str(videos), "--out", str(tmp_path / "rep")]) == 0
        good = tmp_path / "rep.jsonl"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(edit(good.read_bytes().splitlines(keepends=True))))
        return good, bad

    @pytest.mark.parametrize("bad_side", ["a", "b"])
    def test_non_utf8_report_names_the_file_and_line(self, mini_pipeline, tmp_path, capsys,
                                                     bad_side):
        def edit(lines):
            lines[2] = lines[2].replace(b'"class": "', b'"class": "\xff')
            return lines

        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        reports = (bad, good) if bad_side == "a" else (good, bad)
        capsys.readouterr()
        assert cli_dispatch(["report-rank-dist", "--report-a", str(reports[0]),
                             "--report-b", str(reports[1]),
                             "--out", str(tmp_path / "dist.tsv")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: not UTF-8 text\n"
        assert not (tmp_path / "dist.tsv").exists()

    @pytest.mark.parametrize("change,message", [
        ({"top5": None}, "missing metric 'top5'"),
        ({"top1": "x"}, "top1 must be a number, got 'x'"),
        ({"r_at_5": True}, "r_at_5 must be a number, got True"),
        ({"mdr": 2.0}, "mdr must be an integer, got 2.0"),
        ({"top1": 1.5}, "top1 must lie in [0, 1], got 1.5"),
        ({"r_at_10": float("nan")}, "r_at_10 must lie in [0, 1], got nan"),
        ({"top1": 0.75, "top5": 0.5}, "top5 must be >= top1"),
        ({"r_at_1": 0.9, "r_at_5": 0.5, "r_at_10": 1.0}, "recall must be non-decreasing in k"),
        ({"mdr": 0}, "median rank must be >= 1"),
        ({"n_queries": 16.0}, "n_queries must be an integer, got 16.0"),
        ({"n_queries": "16"}, "n_queries must be an integer, got '16'"),
        ({"gallery_size": True}, "gallery_size must be an integer, got True"),
    ])
    def test_bad_summary_names_the_file_and_record(self, mini_pipeline, tmp_path, capsys,
                                                   change, message):
        def edit(lines):
            record = json.loads(lines[0])
            assert record["record"] == "summary"
            record.update(change)
            lines[0] = json.dumps({k: v for k, v in record.items() if v is not None}).encode() \
                + b"\n"
            return lines

        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        capsys.readouterr()
        assert cli_dispatch(["report-rank-dist", "--report-a", str(good),
                             "--report-b", str(bad), "--out", str(tmp_path / "dist.tsv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 1: malformed summary record: {message}\n"
        assert not (tmp_path / "dist.tsv").exists()

    @staticmethod
    def _edit_ranks(**changes):
        """An edit of a report's last line, its ranks record."""
        def edit(lines):
            record = json.loads(lines[-1])
            assert record["record"] == "ranks"
            record.update({key: change(record[key]) for key, change in changes.items()})
            lines[-1] = json.dumps(record).encode() + b"\n"
            return lines
        return edit

    @pytest.mark.parametrize("edit,reason", [
        # numpy read these as ranks 1, 2 and 1
        (_edit_ranks(ranks=lambda r: [1.9, 2.5, True] + r[3:]), "ranks must be integers, got 1.9"),
        (_edit_ranks(ranks=lambda r: [True] + r[1:]), "ranks must be integers, got True"),
        (_edit_ranks(gallery_size=float), "gallery_size must be an integer, got 16.0"),
        (_edit_ranks(gallery_size=lambda g: True), "gallery_size must be an integer, got True"),
        (_edit_ranks(ranks=lambda r: [10**30] + r[1:]),
         "Python int too large to convert to C long"),
    ], ids=["floats-and-true", "true", "float-gallery-size", "true-gallery-size", "huge"])
    def test_ranks_must_be_json_integers(self, mini_pipeline, tmp_path, capsys, edit, reason):
        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        n = len(bad.read_bytes().splitlines())
        capsys.readouterr()
        assert cli_dispatch(["report-rank-dist", "--report-a", str(bad),
                             "--report-b", str(good), "--out", str(tmp_path / "dist.tsv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line {n}: malformed ranks record: {reason}\n"
        assert not (tmp_path / "dist.tsv").exists()

    @pytest.mark.parametrize("change,reason", [
        ({"n_queries": None}, "summary record is missing 'n_queries'"),
        ({"gallery_size": None}, "summary record is missing 'gallery_size'"),
        ({"n_queries": 512, "gallery_size": 512}, "summary record counts 512 queries over 512 "
                                                  "items, but the ranks record on line {n} "
                                                  "holds 16 ranks over 16"),
        ({"n_queries": 15}, "summary record counts 15 queries over 16 items, "
                            "but the ranks record on line {n} holds 16 ranks over 16"),
        ({"gallery_size": 17}, "summary record counts 16 queries over 17 items, "
                               "but the ranks record on line {n} holds 16 ranks over 16"),
    ])
    @pytest.mark.parametrize("command", ["report-rank-dist", "report-class-delta"])
    def test_summary_sizes_must_match_the_ranks(self, mini_pipeline, tmp_path, capsys,
                                                change, reason, command):
        def edit(lines):  # a None value drops the key
            record = {**json.loads(lines[0]), **change}
            lines[0] = json.dumps({k: v for k, v in record.items() if v is not None}).encode() \
                + b"\n"
            return lines

        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        n = len(bad.read_bytes().splitlines())
        ranks = json.loads(good.read_bytes().splitlines()[-1])
        assert (len(ranks["ranks"]), ranks["gallery_size"]) == (16, 16)
        capsys.readouterr()
        assert cli_dispatch([command, "--report-a", str(good), "--report-b", str(bad),
                             "--out", str(tmp_path / "out.tsv")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 1: {reason.format(n=n)}\n"
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("count", [0, -7])
    @pytest.mark.parametrize("command", ["report-rank-dist", "report-class-delta"])
    def test_per_class_count_below_one_is_one_error_line(self, mini_pipeline, tmp_path, capsys,
                                                         count, command):
        def edit(lines):
            record = json.loads(lines[1])
            assert record["record"] == "per_class"
            lines[1] = json.dumps({**record, "count": count}).encode() + b"\n"
            return lines

        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        capsys.readouterr()
        assert cli_dispatch([command, "--report-a", str(bad), "--report-b", str(good),
                             "--out", str(tmp_path / "out.tsv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 2: malformed per_class record: count must be >= 1, got {count}\n"
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("repeat", ["summary", "per_class", "ranks"])
    @pytest.mark.parametrize("command", ["report-rank-dist", "report-class-delta"])
    def test_repeated_record_is_one_error_line(self, mini_pipeline, tmp_path, capsys,
                                               repeat, command):
        # A later record used to replace the earlier one without a word.
        def edit(lines):
            first = {"summary": 0, "per_class": 1, "ranks": len(lines) - 1}[repeat]
            return lines + [lines[first]]

        good, bad = self._bad_report(mini_pipeline, tmp_path, edit)
        n = len(bad.read_bytes().splitlines())
        first_line, what = {"summary": (1, "summary record"),
                            "per_class": (2, "per_class record for class 'concept_0'"),
                            "ranks": (n - 1, "ranks record")}[repeat]
        capsys.readouterr()
        assert cli_dispatch([command, "--report-a", str(good), "--report-b", str(bad),
                             "--out", str(tmp_path / "out.tsv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line {n}: a second {what}; the first is on line {first_line}\n"
        assert not (tmp_path / "out.tsv").exists()

    def test_non_finite_teacher_weight_is_rejected(self, mini_pipeline, tmp_path, capsys):
        root, _, _ = mini_pipeline
        ckpt = load_checkpoint(root / "teacher.ckpt")
        values = ckpt.params.values.copy()
        values[3] = np.nan
        teacher = tmp_path / "nan.ckpt"
        save_checkpoint(teacher, dataclasses.replace(
            ckpt, params=ParamVector(values, ckpt.params.layout)))
        capsys.readouterr()
        assert cli_dispatch(["fuse", "--teacher", str(teacher),
                             "--student", str(root / "student.ckpt"),
                             "--out", str(tmp_path / "fused.ckpt")]) == 2
        assert capsys.readouterr().err == f"error: {teacher}: weight 3 is not finite\n"
        assert [p.name for p in tmp_path.iterdir()] == ["nan.ckpt"]

    # A bad --templates value is a usage error, like a template without {c}.
    @pytest.mark.parametrize("command", ["eval-retrieval", "eval-classify", "sweep-alpha"])
    @pytest.mark.parametrize("template", ["{c} {x}", "{c} {", "} {c}", "{{c}}", "{c!r}",
                                          "{c:>9}", "{c.upper}", "{c[0]}", "{} {c}", "{c}{c}"])
    def test_bad_template_is_one_error_line(self, mini_pipeline, tmp_path, capsys,
                                            command, template):
        root, _, videos = mini_pipeline
        if command == "sweep-alpha":
            args = ["--teacher", str(root / "teacher.ckpt"),
                    "--student", str(root / "student.ckpt"), "--alphas", "0,1"]
        else:
            args = ["--ckpt", str(root / "teacher.ckpt")]
        capsys.readouterr()
        code = cli_dispatch([command, *args, "--corpus", str(videos),
                             "--templates", template, "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: template {template!r} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_escaped_braces_around_the_placeholder_are_text(self, mini_pipeline, tmp_path):
        root, _, videos = mini_pipeline
        assert cli_dispatch(["eval-classify", "--ckpt", str(root / "teacher.ckpt"),
                             "--corpus", str(videos), "--templates", "{{ {c} }}|{c}",
                             "--out", str(tmp_path / "cls")]) == 0

    def test_sweep_alpha_outputs(self, mini_pipeline):
        root, _, videos = mini_pipeline
        assert cli_dispatch([
            "sweep-alpha", "--teacher", str(root / "teacher.ckpt"),
            "--student", str(root / "student.ckpt"), "--corpus", str(videos),
            "--alphas", "0,0.4,1.0", "--out", str(root / "sweep"),
        ]) == 0
        lines = (root / "sweep.tsv").read_text().strip().split("\n")
        assert lines[0].startswith("alpha\ttop1")
        assert len(lines) == 4
        records = [json.loads(l) for l in (root / "sweep.jsonl").read_text().splitlines()]
        assert records[-1]["record"] == "summary"
        assert "interior_beats_endpoints" in records[-1]
        impact = (root / "sweep.impact.tsv").read_text().strip().split("\n")
        assert [row.split("\t")[0] for row in impact] == \
            ["model", "teacher", "student", "fused", "delta"]

    @pytest.mark.parametrize("alphas", ["0,1", "0.4", "1", "0,0.5"])
    def test_impact_table_evaluates_alphas_the_grid_lacks(self, mini_pipeline, tmp_path,
                                                          alphas):
        root, _, videos = mini_pipeline
        for stem, grid in (("full", "0,0.4,1"), ("part", alphas)):
            assert cli_dispatch([
                "sweep-alpha", "--teacher", str(root / "teacher.ckpt"),
                "--student", str(root / "student.ckpt"), "--corpus", str(videos),
                "--alphas", grid, "--out", str(tmp_path / stem)]) == 0
        impact = (tmp_path / "full.impact.tsv").read_bytes()
        assert (tmp_path / "part.impact.tsv").read_bytes() == impact
        rows = (tmp_path / "part.tsv").read_text().splitlines()[1:]
        assert [float(row.split("\t")[0]) for row in rows] == [float(a) for a in alphas.split(",")]
        manifest = json.loads((tmp_path / "part.manifest.json").read_text())
        assert manifest["outputs"] == ["part.tsv", "part.jsonl", "part.impact.tsv"]

    def test_sweep_endpoints_equal_standalone_reports(self, mini_pipeline, tmp_path):
        root, _, videos = mini_pipeline
        summaries = {}
        for name in ("teacher", "student"):
            assert cli_dispatch(["eval-retrieval", "--ckpt", str(root / f"{name}.ckpt"),
                                 "--corpus", str(videos), "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / f"{name}.jsonl") as fh:
                summaries[name] = parse_report_records(fh).summary
        assert cli_dispatch(["sweep-alpha", "--teacher", str(root / "teacher.ckpt"),
                             "--student", str(root / "student.ckpt"), "--corpus", str(videos),
                             "--alphas", "0,0.5,1", "--out", str(tmp_path / "sweep")]) == 0
        rows = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
        by_alpha = {row["alpha"]: row for row in rows if row["record"] == "alpha_row"}
        for alpha, name in ((0.0, "teacher"), (1.0, "student")):
            for metric in ("top1", "top5", "r_at_1", "r_at_5", "r_at_10", "mdr"):
                assert by_alpha[alpha][metric] == summaries[name][metric], (name, metric)

    def test_corrupted_checkpoint_is_runtime_failure(self, mini_pipeline, capsys):
        root, _, videos = mini_pipeline
        bad = root / "corrupt.ckpt"
        data = bytearray((root / "teacher.ckpt").read_bytes())
        data[-10] ^= 0xFF
        bad.write_bytes(bytes(data))
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(bad), "--corpus", str(videos),
            "--out", str(root / "rep_bad"),
        ])
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", CORPUS_EDITS.values(), ids=CORPUS_EDITS.keys())
    def test_malformed_corpus_is_one_error_line(self, mini_pipeline, tmp_path, capsys, edit):
        root, _, videos = mini_pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(edit(videos.read_bytes(), "eval"))
        capsys.readouterr()
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"), "--corpus", str(bad),
            "--out", str(tmp_path / "rep"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    # A float where the header wants an int used to end in a traceback later
    # (n_concepts, latent_dim, seed) or to pass (n_eval).
    @pytest.mark.parametrize("field,value,reason", [
        ("n_concepts", 64.0, "an integer"), ("latent_dim", 16.0, "an integer"),
        ("seed", 7.5, "an integer"), ("n_eval", 512.0, "an integer"),
        ("d_v", True, "an integer"), ("noise_sigma", False, "a number"),
        ("noise_sigma", "0.05", "a number"), ("identity_maps", 0, "true or false"),
    ])
    def test_mistyped_header_field_is_one_error_line(self, mini_pipeline, tmp_path, capsys,
                                                     field, value, reason):
        root, _, videos = mini_pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(edit_json(videos.read_bytes(), "header",
                                  lambda h: h["synth"].__setitem__(field, value)))
        capsys.readouterr()
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"), "--corpus", str(bad),
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {bad}: header: bad generation config: "
                                           f"SynthConfig.{field} must be {reason}, got {value!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_header_scale_too_large_for_a_double_is_one_error_line(self, mini_pipeline,
                                                                   tmp_path, capsys):
        root, _, videos = mini_pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(edit_json(videos.read_bytes(), "header",
                                  lambda h: h["synth"].__setitem__("noise_sigma", 10**400)))
        capsys.readouterr()
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"), "--corpus", str(bad),
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {bad}: header: bad generation config: "
                                           "SynthConfig.noise_sigma must be a finite number\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled"])
    @pytest.mark.parametrize("edit", CORPUS_EDITS.values(), ids=CORPUS_EDITS.keys())
    def test_malformed_record_in_a_dropped_split_fails_as_in_a_full_load(
            self, mini_pipeline, tmp_path, capsys, edit, split):
        # eval-retrieval keeps only the eval split, but checks every block.
        root, _, videos = mini_pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(edit(videos.read_bytes(), split))
        with pytest.raises(DfuseError) as full:
            load_corpus(bad)
        capsys.readouterr()
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"), "--corpus", str(bad),
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {full.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_checkpoint_layout_mismatch_is_one_error_line(self, mini_pipeline, tmp_path,
                                                         capsys):
        root, _, videos = mini_pipeline
        teacher = load_checkpoint(root / "teacher.ckpt")
        layout = tuple((name, shape[::-1]) if name == "video.w1" else (name, shape)
                       for name, shape in teacher.params.layout)
        bad = tmp_path / "swapped.ckpt"
        save_checkpoint(bad, Checkpoint(teacher.enc_cfg, teacher.loss_cfg,
                                        ParamVector(teacher.params.values, layout),
                                        teacher.step, teacher.val_loss))
        capsys.readouterr()
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(bad), "--corpus", str(videos),
            "--out", str(tmp_path / "rep"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: stored tensor layout") and err.count("\n") == 1

    def test_missing_corpus_is_usage_error(self, mini_pipeline, capsys):
        root, _, _ = mini_pipeline
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"),
            "--corpus", str(root / "missing.jsonl"), "--out", str(root / "rep"),
        ])
        assert code == 1

    def test_dimension_mismatch_is_usage_error(self, mini_pipeline, tmp_path, capsys):
        root, _, _ = mini_pipeline
        other_corpus = tmp_path / "other.jsonl"
        args = ["gen-corpus", "--n-concepts", "4", "--latent-dim", "6",
                "--d-v", "9", "--d-t", "9", "--n-labeled-train", "8",
                "--n-labeled-val", "4", "--n-unlabeled", "0", "--n-eval", "8",
                "--seed", "5", "--out", str(other_corpus)]
        assert cli_dispatch(args) == 0
        code = cli_dispatch([
            "eval-retrieval", "--ckpt", str(root / "teacher.ckpt"),
            "--corpus", str(other_corpus), "--out", str(root / "rep_dim"),
        ])
        assert code == 1
        assert "dims" in capsys.readouterr().err


class TestSplitsKept:
    """Each command keeps only the corpus splits it reads."""

    @staticmethod
    def _loads(monkeypatch) -> list:
        import dfuse.cli as cli

        loaded = []

        def spy(path, splits):
            loaded.append(load_corpus(path, splits))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_corpus", spy)
        return loaded

    @pytest.mark.parametrize("lambda_,unlabeled", [("0", False), ("0.999", True)])
    def test_train_student_keeps_unlabeled_features_only_to_distill(
            self, mini_pipeline, tmp_path, monkeypatch, lambda_, unlabeled):
        root, _, videos = mini_pipeline
        loaded = self._loads(monkeypatch)
        assert cli_dispatch([
            "train-student", "--teacher", str(root / "teacher.ckpt"), "--corpus", str(videos),
            "--lambda", lambda_, "--max-steps", "2", "--eval-every", "1",
            "--batch-size-labeled", "4", "--batch-size-unlabeled", "4",
            "--out", str(tmp_path / "s.ckpt"),
        ]) == 0
        [corpus] = loaded
        kept = ("labeled-train", "labeled-val") + (("unlabeled",) if unlabeled else ())
        assert corpus.splits == kept
        assert {r.split for r in corpus.records} == set(kept)
        if unlabeled:
            assert len(corpus.videos("unlabeled")) == len(corpus.texts("unlabeled")) == 16
        else:
            for accessor in (corpus.videos, corpus.texts):
                with pytest.raises(UsageError, match="split 'unlabeled' was not loaded"):
                    accessor("unlabeled")

    def test_commands_keep_the_splits_they_read(self, mini_pipeline, tmp_path, monkeypatch):
        root, images, videos = mini_pipeline
        teacher, student = str(root / "teacher.ckpt"), str(root / "student.ckpt")
        runs = [
            (["pretrain-teacher", "--corpus", str(images), "--max-steps", "2",
              "--eval-every", "1", "--batch-size-labeled", "4", "--hidden-dim", "10",
              "--embed-dim", "6"], ("labeled-train", "labeled-val")),
            (["eval-retrieval", "--ckpt", teacher, "--corpus", str(videos)], ("eval",)),
            (["eval-classify", "--ckpt", teacher, "--corpus", str(videos)], ("eval",)),
            (["sweep-alpha", "--teacher", teacher, "--student", student,
              "--corpus", str(videos), "--alphas", "0,1"], ("eval",)),
        ]
        for i, (argv, kept) in enumerate(runs):
            loaded = self._loads(monkeypatch)
            assert cli_dispatch([*argv, "--out", str(tmp_path / f"out{i}")]) == 0
            [corpus] = loaded
            assert corpus.splits == kept, argv[0]
            assert {r.split for r in corpus.records} == set(kept), argv[0]


# Each command that reads a corpus, with a split it drops.
_CORPUS_COMMANDS = {
    "pretrain-teacher": (["pretrain-teacher", "--max-steps", "2", "--eval-every", "1",
                          "--batch-size-labeled", "4", "--hidden-dim", "10", "--embed-dim", "6"],
                         "eval"),
    "train-student": (["train-student", "--teacher", "{teacher}", "--max-steps", "2",
                       "--eval-every", "1", "--batch-size-labeled", "4",
                       "--batch-size-unlabeled", "4"], "eval"),
    "train-student-lambda-0": (["train-student", "--teacher", "{teacher}", "--lambda", "0",
                                "--max-steps", "2", "--eval-every", "1",
                                "--batch-size-labeled", "4"], "unlabeled"),
    "eval-retrieval": (["eval-retrieval", "--ckpt", "{teacher}"], "labeled-val"),
    "eval-classify": (["eval-classify", "--ckpt", "{teacher}"], "labeled-val"),
    "sweep-alpha": (["sweep-alpha", "--teacher", "{teacher}", "--student", "{student}",
                     "--alphas", "0,1"], "labeled-val"),
}


class TestCorpusCommands:
    """Every command that reads a corpus fails on a bad one with one line, the
    load's own message, however few splits it keeps."""

    @staticmethod
    def _run(mini_pipeline, tmp_path, capsys, command, corpus) -> tuple[int, str, str]:
        root = mini_pipeline[0]
        argv = [arg.format(teacher=root / "teacher.ckpt", student=root / "student.ckpt")
                for arg in _CORPUS_COMMANDS[command][0]]
        capsys.readouterr()
        code = cli_dispatch([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("command", _CORPUS_COMMANDS)
    def test_a_v2_corpus_is_one_error_line(self, mini_pipeline, tmp_path, capsys, command):
        # A v2 file starts with its own tag and the same framed header.
        _, _, videos = mini_pipeline
        data = videos.read_bytes()
        header = blocks(data)["header"]
        bad = tmp_path / "v2.jsonl"
        bad.write_bytes(b"DFCORP02" + data[8:header[2] + len(header[1]) + 20])
        assert self._run(mini_pipeline, tmp_path, capsys, command, bad) == (
            2, "", f"error: {bad}: bad magic tag, not a dfuse-corpus-v3 file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["v2.jsonl"]

    @pytest.mark.parametrize("edit", CORPUS_EDITS.values(), ids=CORPUS_EDITS.keys())
    @pytest.mark.parametrize("command", _CORPUS_COMMANDS)
    def test_a_fault_in_a_dropped_split_fails_as_in_a_full_load(self, mini_pipeline, tmp_path,
                                                                capsys, command, edit):
        _, _, videos = mini_pipeline
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(edit(videos.read_bytes(), _CORPUS_COMMANDS[command][1]))
        with pytest.raises(DfuseError) as full:
            load_corpus(bad)
        assert self._run(mini_pipeline, tmp_path, capsys, command, bad) == (
            2, "", f"error: {full.value}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]


def _sweep_rows(metric, values, alphas=(0.0, 0.5, 1.0)):
    """Sweep rows over ``alphas`` in which only ``metric`` varies, taking ``values``."""
    flat = {m: 4 if m == "mdr" else 0.5 for m in SUMMARY_METRICS}
    return [{"alpha": a, **flat, metric: v} for a, v in zip(alphas, values)]


class TestSweepSummary:
    """A lower median rank is better; a higher value of any other metric is."""

    @pytest.mark.parametrize("metric", SUMMARY_METRICS)
    def test_best_alpha_follows_the_metric_s_direction(self, metric):
        # The largest value is at alpha 0, the smallest at alpha 0.5.
        values = (3, 1, 2) if metric == "mdr" else (0.3, 0.1, 0.2)
        summary = _sweep_summary(_sweep_rows(metric, values))
        assert summary["best_alpha"][metric] == (0.5 if metric == "mdr" else 0.0)
        assert summary["alphas"] == [0.0, 0.5, 1.0] and summary["record"] == "summary"

    @pytest.mark.parametrize("metric", SUMMARY_METRICS)
    def test_interior_beats_endpoints_only_when_strictly_better(self, metric):
        def interior(values):
            return _sweep_summary(_sweep_rows(metric, values, (0.0, 0.25, 0.75, 1.0))
                                  )["interior_beats_endpoints"][metric]

        if metric == "mdr":
            assert interior((3, 5, 2, 4)) is True
            assert interior((3, 5, 3, 4)) is False  # a tie with the better endpoint
            assert interior((3, 5, 6, 4)) is False
        else:
            assert interior((0.4, 0.1, 0.5, 0.3)) is True
            assert interior((0.4, 0.1, 0.4, 0.3)) is False
            assert interior((0.4, 0.1, 0.2, 0.3)) is False

    def test_a_tie_goes_to_the_first_alpha(self):
        summary = _sweep_summary(_sweep_rows("top1", (0.5, 0.5, 0.5), (0.75, 0.25, 0.5)))
        assert set(summary["best_alpha"].values()) == {0.75}

    @pytest.mark.parametrize("alphas", [(0.0, 0.5), (0.5, 1.0)])
    def test_without_both_endpoints_interior_is_unknown(self, alphas):
        summary = _sweep_summary(_sweep_rows("top1", (0.2, 0.3), alphas))
        assert summary["interior_beats_endpoints"] == dict.fromkeys(SUMMARY_METRICS)
        assert summary["best_alpha"]["top1"] == alphas[1]


class TestManifestDigests:
    def test_corpus_digest_covers_the_raw_bytes(self, mini_pipeline, tmp_path):
        # The corpus digest comes from the loader's read pass: every manifest
        # must hold the file's own SHA-256.
        root, images, videos = mini_pipeline
        teacher, student = root / "teacher.ckpt", root / "student.ckpt"
        small = ["--max-steps", "2", "--eval-every", "1", "--batch-size-labeled", "4"]
        runs = {
            "pretrain-teacher": (["--corpus", str(images), *small, "--hidden-dim", "10",
                                  "--embed-dim", "6"], images, "t.ckpt"),
            "train-student": (["--teacher", str(teacher), "--corpus", str(videos), *small,
                               "--batch-size-unlabeled", "4"], videos, "s.ckpt"),
            "eval-retrieval": (["--ckpt", str(teacher), "--corpus", str(videos)],
                               videos, "ret"),
            "eval-classify": (["--ckpt", str(student), "--corpus", str(videos)],
                              videos, "cls"),
            "sweep-alpha": (["--teacher", str(teacher), "--student", str(student),
                             "--corpus", str(videos), "--alphas", "0,1"], videos, "sweep"),
        }
        for command, (args, corpus, out) in runs.items():
            assert cli_dispatch([command, *args, "--out", str(tmp_path / out)]) == 0
            manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
            assert manifest["inputs"][str(corpus)] == sha256_file(corpus), command
            if command in ("eval-retrieval", "eval-classify", "train-student"):
                ckpt = Path(args[1])
                assert manifest["inputs"][str(ckpt)] == sha256_file(ckpt), command


class TestTrainingDivergence:
    @pytest.mark.parametrize("command", ["pretrain-teacher", "train-student"])
    def test_non_finite_gradient_is_one_error_line_and_no_checkpoint(
            self, mini_pipeline, tmp_path, capsys, monkeypatch, command):
        import dfuse.training as training

        real = training.total_loss_grad

        def nan_gradient(*args, **kwargs):
            loss, grad = real(*args, **kwargs)
            values = grad.values.copy()
            values[0] = float("nan")
            return loss, ParamVector(values, grad.layout)

        monkeypatch.setattr(training, "total_loss_grad", nan_gradient)
        root, images, videos = mini_pipeline
        if command == "pretrain-teacher":
            args = ["--corpus", str(images), "--batch-size-labeled", "8"]
        else:
            args = ["--teacher", str(root / "teacher.ckpt"), "--corpus", str(videos),
                    "--batch-size-labeled", "4", "--batch-size-unlabeled", "4"]
        capsys.readouterr()
        code = cli_dispatch([command, *args, "--max-steps", "5",
                             "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite gradient at step 1\n"
        assert list(tmp_path.iterdir()) == []


class TestWriteFailures:
    @pytest.mark.parametrize("where", ["missing-dir", "existing-dir"])
    def test_error_names_the_output_not_a_temp_file(self, tmp_path, capsys, where):
        if where == "missing-dir":
            out = tmp_path / "missing" / "corpus.jsonl"
        else:
            out = tmp_path / "corpus.jsonl"
            out.mkdir()
        capsys.readouterr()
        assert cli_dispatch(["gen-corpus", *TINY_CORPUS_ARGS, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            [] if where == "missing-dir" else ["corpus.jsonl"]
        )


    def test_overflowing_noise_is_one_error_line_and_no_file(self, tmp_path, capsys):
        # The noise overflows to inf, which load_corpus would reject.
        out = tmp_path / "corpus.jsonl"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code = cli_dispatch(["gen-corpus", *TINY_CORPUS_ARGS, "--noise-sigma", "1e308",
                                 "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: record 'vid-labeled-train-00000': non-finite features\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestGradcheckCommand:
    def test_small_run_passes(self, capsys):
        assert cli_dispatch(["gradcheck", "--trials", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3

    def test_failure_is_runtime_error(self, monkeypatch, capsys):
        import dfuse.cli as cli
        from dfuse.gradcheck import GradCheckTrial

        fake = [GradCheckTrial(index=0, n_params=10, sigma=0.1, lambda_=0.5,
                               max_rel_err=0.5, max_abs_err=0.5)]
        monkeypatch.setattr(cli, "run_gradcheck", lambda **kw: fake)
        assert cli_dispatch(["gradcheck", "--trials", "1"]) == 2
        assert "failed" in capsys.readouterr().err


_HUGE_SEED = "99999999999999999999999"


class TestOutOfRangeArguments:
    """Seeds and trial counts numpy or the checkpoint format cannot take, and
    other out-of-range values, are one error line and exit 1, before any
    input is read and with no output."""

    @pytest.mark.parametrize("argv,env,message", [
        (["gen-corpus", "--seed", "-1", "--out", "{out}/c.jsonl"], None,
         "seed must be >= 0, got -1"),
        (["pretrain-teacher", "--seed", "-2", "--corpus", "{images}", "--out", "{out}/t.ckpt"],
         None, "seed must be >= 0, got -2"),
        (["pretrain-teacher", "--seed", _HUGE_SEED, "--corpus", "{images}",
          "--out", "{out}/t.ckpt"], None, f"seed must be >= 0 and < 2**63, got {_HUGE_SEED}"),
        (["pretrain-teacher", "--seed", str(2**63), "--corpus", "{images}",
          "--out", "{out}/t.ckpt"], None, f"seed must be >= 0 and < 2**63, got {2**63}"),
        (["train-student", "--teacher", "{root}/teacher.ckpt", "--corpus", "{videos}",
          "--out", "{out}/s.ckpt"], "-5", "seed must be >= 0, got -5"),
        (["gradcheck", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["gradcheck", "--trials", "0"], None, "trials must be >= 1, got 0"),
        (["gradcheck", "--trials", "-3"], None, "trials must be >= 1, got -3"),
        (["pretrain-teacher", "--weight-decay", "nan", "--corpus", "{images}",
          "--out", "{out}/t.ckpt"], None, "weight_decay must be >= 0 and finite, got nan"),
        (["pretrain-teacher", "--sigma", "0", "--corpus", "{out}/missing.jsonl",
          "--out", "{out}/t.ckpt"], None, "sigma must be positive and finite, got 0.0"),
        (["train-student", "--weight-decay", "inf", "--teacher", "{root}/teacher.ckpt",
          "--corpus", "{videos}", "--out", "{out}/s.ckpt"], None,
         "weight_decay must be >= 0 and finite, got inf"),
        (["gen-corpus", "--noise-sigma", "nan", "--out", "{out}/c.jsonl"], None,
         "SynthConfig.noise_sigma must be >= 0 and finite, got nan"),
        (["gen-corpus", "--video-domain-shift", "inf", "--out", "{out}/c.jsonl"], None,
         "SynthConfig.video_domain_shift must be >= 0 and finite, got inf"),
        *[(["sweep-alpha", "--teacher", "{root}/teacher.ckpt", "--student", "{root}/student.ckpt",
            "--corpus", "{videos}", "--alphas", alphas, "--out", "{out}/sweep"], None, message)
          for alphas, message in [
              ("0.5,2", "alpha must lie in [0, 1], got 2.0"),
              ("0.5,-0.1", "alpha must lie in [0, 1], got -0.1"),
              ("-0.1,0.5", "alpha must lie in [0, 1], got -0.1"),
              ("0,nan", "alpha must lie in [0, 1], got nan"),
              ("0,inf", "alpha must lie in [0, 1], got inf"),
              ("0,0.5,0", "alpha 0.0 appears twice in the alpha list"),
              ("1,1.0", "alpha 1.0 appears twice in the alpha list"),
          ]],
        *[(["sweep-alpha", "--teacher", "{root}/teacher.ckpt", "--student", "{root}/student.ckpt",
            "--corpus", "{videos}", "--impact-alpha", alpha, "--out", "{out}/sweep"], None,
           f"impact_alpha must lie in [0, 1], got {float(alpha)}")
          for alpha in ("1.5", "-0.1", "nan", "inf")],
        (["report-class-delta", "--report-a", "{out}/a.jsonl", "--report-b", "{out}/b.jsonl",
          "--limit", "-3", "--out", "{out}/delta.tsv"], None, "limit must be >= 0, got -3"),
        # A teacher reads no unlabeled split, so it takes no unlabeled batch size.
        (["pretrain-teacher", "--batch-size-unlabeled", "999", "--corpus", "{images}",
          "--out", "{out}/t.ckpt"], None, "unrecognized arguments: --batch-size-unlabeled 999"),
    ])
    def test_one_error_line_and_no_output(self, mini_pipeline, tmp_path, monkeypatch, capsys,
                                          argv, env, message):
        import dfuse.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the work started before the arguments were checked")

        for name in ("gen_corpus", "pretrain_teacher", "train_student",
                     "load_corpus", "load_checkpoint", "evaluate_model"):
            monkeypatch.setattr(cli, name, no_work)
        if env is None:
            monkeypatch.delenv("DFUSE_SEED", raising=False)
        else:
            monkeypatch.setenv("DFUSE_SEED", env)
        root, images, videos = mini_pipeline
        paths = {"out": tmp_path, "root": root, "images": images, "videos": videos}
        capsys.readouterr()
        assert cli_dispatch([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_largest_storable_seed_round_trips(self, mini_pipeline, tmp_path):
        _, images, _ = mini_pipeline
        out = tmp_path / "t.ckpt"
        assert cli_dispatch(["pretrain-teacher", "--corpus", str(images), "--hidden-dim", "4",
                             "--embed-dim", "3", "--max-steps", "2", "--batch-size-labeled", "8",
                             "--seed", str(2**63 - 1), "--out", str(out)]) == 0
        assert load_checkpoint(out).enc_cfg.seed == 2**63 - 1


class TestOutOfMemory:
    """A ``MemoryError`` is one error line and exit 2, leaving no file behind."""

    def test_during_training(self, mini_pipeline, tmp_path, monkeypatch, capsys):
        import dfuse.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 23.8 GiB for an array with shape "
                              "(3200000000,) and data type float64")

        monkeypatch.setattr(cli, "pretrain_teacher", exhausted)
        _, images, _ = mini_pipeline
        capsys.readouterr()
        code = cli_dispatch(["pretrain-teacher", "--corpus", str(images),
                             "--out", str(tmp_path / "t.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 23.8 GiB for an array with shape "
            "(3200000000,) and data type float64\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_part_way_through_a_write(self, tmp_path, monkeypatch, capsys):
        import dfuse.corpus as corpus

        real = corpus._file_chunks

        def exhausted(c):
            yield next(real(c))
            raise MemoryError

        monkeypatch.setattr(corpus, "_file_chunks", exhausted)
        capsys.readouterr()
        code = cli_dispatch(["gen-corpus", *TINY_CORPUS_ARGS, "--out", str(tmp_path / "c.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: MemoryError\n"
        assert list(tmp_path.iterdir()) == []


def test_every_command_returns_freed_heap(tmp_path, monkeypatch, capsys):
    """``malloc_trim(0)`` runs once after each command, a failed one too."""
    import dfuse.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_MALLOC_TRIM", calls.append)
    gen_tiny_corpus(tmp_path / "c.jsonl")
    assert calls == [0]
    assert cli_dispatch(["pretrain-teacher", "--corpus", str(tmp_path / "missing.jsonl"),
                         "--out", str(tmp_path / "t.ckpt")]) == 1
    assert calls == [0, 0]


class TestAuxiliaryOutputs:
    def test_delta_limit_truncates(self, mini_pipeline):
        root, _, _ = mini_pipeline
        assert cli_dispatch([
            "report-class-delta", "--report-a", str(root / "cls_student.jsonl"),
            "--report-b", str(root / "cls_teacher.jsonl"), "--limit", "1",
            "--out", str(root / "delta_limited.tsv"),
        ]) == 0
        lines = (root / "delta_limited.tsv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + top 1 + bottom 1
        assert cli_dispatch([
            "report-class-delta", "--report-a", str(root / "cls_student.jsonl"),
            "--report-b", str(root / "cls_teacher.jsonl"), "--limit", "0",
            "--out", str(root / "delta_all.tsv"),
        ]) == 0
        lines = (root / "delta_all.tsv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + every one of the 4 classes

    def test_every_writing_command_leaves_a_manifest(self, mini_pipeline):
        root, images, videos = mini_pipeline
        for anchor in (images, videos, root / "teacher.ckpt", root / "student.ckpt"):
            manifest = anchor.parent / (anchor.name + ".manifest.json")
            assert manifest.is_file()
            payload = json.loads(manifest.read_text())
            assert set(payload) == {"command", "config", "inputs", "outputs"}


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dfuse", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "gen-corpus" in proc.stdout

    def test_corpus_commands_run_without_orjson(self, mini_pipeline, tmp_path):
        # No corpus path imports orjson: an import of it fails in this process.
        import subprocess
        import sys

        root, _, _ = mini_pipeline
        corpus = str(tmp_path / "c.jsonl")
        argvs = [["gen-corpus", *TINY_CORPUS_ARGS, "--out", corpus],
                 ["eval-retrieval", "--ckpt", str(root / "teacher.ckpt"), "--corpus", corpus,
                  "--out", str(tmp_path / "rep")]]
        code = ("import sys\nsys.modules['orjson'] = None\nfrom dfuse.cli import cli_dispatch\n"
                f"sys.exit(max(cli_dispatch(argv) for argv in {argvs!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rep.tsv").is_file()

    def test_console_script(self):
        import shutil
        import subprocess

        exe = shutil.which("dfuse")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
