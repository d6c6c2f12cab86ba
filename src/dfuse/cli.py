"""Command-line pipeline driver.

Subcommands cover corpus generation, teacher pretraining, student training,
weight fusion, alpha sweeps, zero-shot evaluation, diagnostic exports, and
gradient checking. A command that builds a config dataclass takes one option
per field, with the field's default and help text. Every option resolves as:

    command default < config file (key = value lines) < DFUSE_SEED (seed only) < flag

Each run that writes files also writes a ``<output>.manifest.json`` with the
resolved configuration and SHA-256 checksums of its inputs. A corpus input is
hashed as ``load_corpus`` reads it, so its bytes are read once; any other
input is hashed when the manifest is written. A command that reads a corpus
keeps only the splits it uses, though every block is still checked. Exit codes:
0 success, 1 usage error, 2 runtime or validation failure.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .checkpointio import Checkpoint, load_checkpoint, save_checkpoint
from .corpus import Corpus, SynthConfig, gen_corpus, load_corpus
from .encoder import EncoderConfig, check_seed
from .errors import DfuseError, UsageError, ValidationError
from .evaluation import (
    DEFAULT_TEMPLATE,
    SUMMARY_METRICS,
    build_prompt_set,
    delta_table,
    evaluate_model,
    parse_report_records,
    prepare_eval,
    rank_distribution,
    report_jsonl,
    report_table,
)
from .fileio import atomic_write_text, sha256_file, tsv
from .fusion import FusionConfig, fuse_weights, sweep_alpha
from .gradcheck import DEFAULT_TOLERANCE, run_gradcheck
from .losses import LossConfig
from .training import TrainConfig, pretrain_teacher, train_student

SEED_ENV_VAR = "DFUSE_SEED"
# The corpus splits each command keeps; load_corpus still checks every block.
_TRAIN_SPLITS = ("labeled-train", "labeled-val")  # plus "unlabeled" when distilling
_EVAL_SPLITS = ("eval",)
# glibc's malloc_trim returns the C heap's free pages to the OS; None without glibc.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage problems are exit 1
        raise UsageError(message)


@dataclass(frozen=True)
class _Opt:
    name: str          # attribute / dict key (may end in _ to dodge keywords)
    kind: str          # int | float | str | bool
    default: object = None
    help: str = ""
    required: bool = False

    @property
    def key(self) -> str:
        return self.name.rstrip("_")

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _convert(opt: _Opt, raw: str):
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"expected true/false, got {raw!r}")
        return raw
    except ValueError as exc:
        raise UsageError(f"bad value for {opt.key}: {exc}") from exc


def _field_opts(cls, skip: tuple[str, ...] = (), **defaults) -> list[_Opt]:
    """One option per field of config dataclass ``cls`` that is not in ``skip``.

    Its kind is the field's annotation, a string under postponed evaluation,
    and its help the field's ``metadata["help"]``; ``defaults`` replaces a
    field's default for one command.
    """
    return [_Opt(f.name, f.type, defaults.get(f.name, f.default), f.metadata["help"])
            for f in fields(cls) if f.name not in skip]


def _build(cls, values: dict, **fixed):
    """``cls`` built from the resolved option values; ``fixed`` sets the fields no option sets."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **fixed)


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of file ``path``; a missing file or a non-UTF-8 byte is a
    usage error, the latter naming the file and line."""
    data = _require_file(path, what).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{path}: line {lineno}: not UTF-8 text") from None


def _read_config_file(path: str, by_key: dict[str, _Opt]) -> dict:
    """Option name -> value for each ``key = value`` line; errors name the file and line."""
    text = _read_text(path, "config file")
    values: dict = {}
    first_seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in stripped.partition("="))
        try:
            if not eq or not key:
                raise UsageError("expected 'key = value'")
            if key not in by_key:
                raise UsageError(f"unknown config key {key!r} for this command")
            if key in first_seen:
                raise UsageError(f"config key {key!r} is already set on line {first_seen[key]}")
            first_seen[key] = lineno
            values[by_key[key].name] = _convert(by_key[key], raw)
        except UsageError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from None
    return values


def _resolve(opts: list[_Opt], ns: argparse.Namespace) -> dict:
    values = {o.name: o.default for o in opts}
    by_key = {o.key: o for o in opts}
    file_vals = {} if ns.config is None else _read_config_file(ns.config, by_key)
    values.update(file_vals)
    if "seed" in by_key and getattr(ns, "seed") is None and "seed" not in file_vals:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            values["seed"] = _convert(by_key["seed"], env)
    for o in opts:
        raw = getattr(ns, o.name)
        if raw is not None:
            values[o.name] = _convert(o, raw)
    for o in opts:
        if o.required and values[o.name] is None:
            raise UsageError(f"missing required option {o.flag}")
    values["config_file"] = ns.config
    return values


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _write_manifest(anchor: Path, command: str, values: dict, inputs: list[Path],
                    outputs: list[str], corpus: Corpus | None = None) -> None:
    """Write ``<anchor>.manifest.json``; ``corpus`` is the loaded ``values["corpus"]``.

    The corpus input takes the digest ``load_corpus`` computed from the bytes
    it read; every path in ``inputs`` is hashed here.
    """
    digests = {str(p): sha256_file(p) for p in inputs}
    if corpus is not None:
        digests[str(Path(values["corpus"]))] = corpus.sha256
    payload = {
        "command": command,
        # user-facing keys: internal names may carry a keyword-dodging underscore
        "config": {k.rstrip("_"): v for k, v in sorted(values.items())},
        "inputs": digests,
        "outputs": outputs,
    }
    atomic_write_text(str(anchor) + ".manifest.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_corpus_for(enc_cfg: EncoderConfig, path: Path, splits: tuple[str, ...]) -> Corpus:
    corpus = load_corpus(path, splits)
    if corpus.synth.d_v != enc_cfg.input_dim_video or corpus.synth.d_t != enc_cfg.input_dim_text:
        raise UsageError(
            f"corpus feature dims ({corpus.synth.d_v}, {corpus.synth.d_t}) do not match "
            f"the checkpoint encoder ({enc_cfg.input_dim_video}, {enc_cfg.input_dim_text})"
        )
    return corpus


def _templates(values: dict) -> list[str]:
    return [t for t in values["templates"].split("|") if t]


def _parse_alphas(raw: str) -> list[float]:
    try:
        alphas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad alpha list {raw!r}: {exc}") from exc
    if not alphas:
        raise UsageError("alpha list is empty")
    for i, alpha in enumerate(alphas):
        FusionConfig(alpha=alpha)  # finite and in [0, 1]
        if alpha in alphas[:i]:
            raise UsageError(f"alpha {alpha} appears twice in the alpha list")
    return alphas


# --- command implementations ----------------------------------------------

def _cmd_gen_corpus(values: dict) -> int:
    cfg = _build(SynthConfig, values)
    out = Path(values["out"])
    corpus = gen_corpus(cfg, out)
    _write_manifest(out, "gen-corpus", values, [], [out.name])
    n = sum(len(corpus.videos(split)) + len(corpus.texts(split)) for split in corpus.splits)
    print(f"wrote {out} with {n} records")
    return 0


def _cmd_pretrain_teacher(values: dict) -> int:
    # Every option is checked before the corpus read that EncoderConfig needs.
    train_cfg = _build(TrainConfig, values)
    loss_cfg = _build(LossConfig, values, lambda_=0.0)
    check_seed(values["seed"])
    corpus = load_corpus(_require_file(values["corpus"], "corpus file"), _TRAIN_SPLITS)
    enc_cfg = _build(EncoderConfig, values,
                     input_dim_video=corpus.synth.d_v, input_dim_text=corpus.synth.d_t)
    ckpt = pretrain_teacher(corpus, enc_cfg, train_cfg, sigma=loss_cfg.sigma, log=print)
    out = Path(values["out"])
    save_checkpoint(out, ckpt)
    _write_manifest(out, "pretrain-teacher", values, [], [out.name], corpus)
    print(f"wrote {out} (final val loss {ckpt.val_loss:.6f})")
    return 0


def _cmd_train_student(values: dict) -> int:
    loss_cfg = _build(LossConfig, values)
    train_cfg = _build(TrainConfig, values)
    teacher = load_checkpoint(_require_file(values["teacher"], "teacher checkpoint"))
    splits = _TRAIN_SPLITS + (("unlabeled",) if loss_cfg.lambda_ != 0.0 else ())
    corpus = _load_corpus_for(teacher.enc_cfg, _require_file(values["corpus"], "corpus file"),
                              splits)
    ckpt = train_student(teacher.params, corpus, teacher.enc_cfg, loss_cfg, train_cfg, log=print)
    out = Path(values["out"])
    save_checkpoint(out, ckpt)
    _write_manifest(out, "train-student", values, [Path(values["teacher"])], [out.name],
                    corpus)
    print(f"wrote {out} (best step {ckpt.step}, val loss {ckpt.val_loss:.6f})")
    return 0


def _check_fusable(teacher: Checkpoint, student: Checkpoint) -> None:
    # Equal configs up to the init seed: layouts alone would miss n_frames.
    if replace(teacher.enc_cfg, seed=0) != replace(student.enc_cfg, seed=0):
        raise UsageError("teacher and student encoder architectures differ; cannot fuse")


def _cmd_fuse(values: dict) -> int:
    teacher = load_checkpoint(_require_file(values["teacher"], "teacher checkpoint"))
    student = load_checkpoint(_require_file(values["student"], "student checkpoint"))
    _check_fusable(teacher, student)
    fused = fuse_weights(teacher.params, student.params, _build(FusionConfig, values))
    out = Path(values["out"])
    # A fused model carries no validation history of its own.
    save_checkpoint(out, Checkpoint(
        teacher.enc_cfg, student.loss_cfg, fused, step=0, val_loss=float("nan"),
    ))
    _write_manifest(out, "fuse", values,
                    [Path(values["teacher"]), Path(values["student"])], [out.name])
    print(f"wrote {out} (alpha {values['alpha']})")
    return 0


def _sweep_summary(rows: list[dict]) -> dict:
    by_alpha = {row["alpha"]: row for row in rows}
    best_alpha = {}
    interior = {}
    has_endpoints = 0.0 in by_alpha and 1.0 in by_alpha
    for metric in SUMMARY_METRICS:
        sign = 1 if metric == "mdr" else -1  # a lower sign * value is better
        best_alpha[metric] = min(rows, key=lambda r: sign * r[metric])["alpha"]
        if has_endpoints:
            ends = min(sign * by_alpha[0.0][metric], sign * by_alpha[1.0][metric])
            interior[metric] = any(sign * r[metric] < ends
                                   for r in rows if r["alpha"] not in (0.0, 1.0))
        else:
            interior[metric] = None
    return {
        "record": "summary",
        "alphas": [row["alpha"] for row in rows],
        "best_alpha": best_alpha,
        "interior_beats_endpoints": interior,
    }


def _cmd_sweep_alpha(values: dict) -> int:
    alphas = _parse_alphas(values["alphas"])
    if not 0.0 <= values["impact_alpha"] <= 1.0:  # false for nan too
        raise UsageError(f"impact_alpha must lie in [0, 1], got {values['impact_alpha']}")
    teacher = load_checkpoint(_require_file(values["teacher"], "teacher checkpoint"))
    student = load_checkpoint(_require_file(values["student"], "student checkpoint"))
    _check_fusable(teacher, student)
    corpus = _load_corpus_for(teacher.enc_cfg, _require_file(values["corpus"], "corpus file"),
                              _EVAL_SPLITS)
    prompts = build_prompt_set(corpus.synth, _templates(values))
    inputs = prepare_eval(corpus, teacher.enc_cfg, prompts)

    def evaluate(params):
        return evaluate_model(params, inputs, teacher.enc_cfg)

    impact = (("teacher", 0.0), ("student", 1.0), ("fused", values["impact_alpha"]))
    # An impact alpha the grid lacks is evaluated for the impact table only.
    extra = [a for a in dict.fromkeys(a for _, a in impact) if a not in alphas]
    swept = [{"alpha": a, **rep.summary} for a, rep in
             sweep_alpha(teacher.params, student.params, [*alphas, *extra], evaluate)]
    rows, by_alpha = swept[:len(alphas)], {row["alpha"]: row for row in swept}
    stem = Path(values["out"])
    outputs = [stem.name + suffix for suffix in (".tsv", ".jsonl", ".impact.tsv")]
    atomic_write_text(str(stem) + ".tsv",
                      tsv(("alpha", *SUMMARY_METRICS), [row.values() for row in rows]))
    jsonl = "".join(json.dumps({"record": "alpha_row", **row}) + "\n" for row in rows)
    jsonl += json.dumps(_sweep_summary(rows)) + "\n"
    atomic_write_text(str(stem) + ".jsonl", jsonl)
    table = [(label, *by_alpha[alpha].values()) for label, alpha in impact]
    fused, base = by_alpha[values["impact_alpha"]], by_alpha[0.0]
    table.append(("delta", "-", *(fused[m] - base[m] for m in SUMMARY_METRICS)))
    atomic_write_text(str(stem) + ".impact.tsv", tsv(("model", "alpha", *SUMMARY_METRICS), table))
    _write_manifest(stem, "sweep-alpha", values,
                    [Path(values["teacher"]), Path(values["student"])], outputs, corpus)
    print(f"wrote {stem}.tsv with {len(rows)} rows")
    return 0


def _run_eval(values: dict, command: str, printed: tuple[str, ...]) -> int:
    ckpt = load_checkpoint(_require_file(values["ckpt"], "checkpoint"))
    corpus = _load_corpus_for(ckpt.enc_cfg, _require_file(values["corpus"], "corpus file"),
                              _EVAL_SPLITS)
    prompts = build_prompt_set(corpus.synth, _templates(values))
    report = evaluate_model(ckpt.params, prepare_eval(corpus, ckpt.enc_cfg, prompts),
                            ckpt.enc_cfg)
    stem = Path(values["out"])
    atomic_write_text(str(stem) + ".tsv", report_table(report))
    atomic_write_text(str(stem) + ".jsonl", report_jsonl(report))
    _write_manifest(stem, command, values, [Path(values["ckpt"])],
                    [stem.name + ".tsv", stem.name + ".jsonl"], corpus)
    for metric in printed:
        print(f"{metric}\t{report.summary[metric]!r}")
    return 0


def _cmd_eval_retrieval(values: dict) -> int:
    return _run_eval(values, "eval-retrieval", ("r_at_1", "r_at_5", "r_at_10", "mdr"))


def _cmd_eval_classify(values: dict) -> int:
    return _run_eval(values, "eval-classify", ("top1", "top5"))


def _read_report(path: str):
    text = _read_text(path, "report file")
    return parse_report_records(io.StringIO(text, newline=None), source=path)


def _cmd_report_class_delta(values: dict) -> int:
    if values["limit"] < 0:
        raise UsageError(f"limit must be >= 0, got {values['limit']}")
    a = _read_report(values["report_a"])
    b = _read_report(values["report_b"])
    limit = values["limit"] if values["limit"] > 0 else None
    rows = delta_table(a.per_class_acc, b.per_class_acc, limit=limit)
    table = [(name, a.per_class_acc[name], b.per_class_acc[name], d) for name, d in rows]
    out = Path(values["out"])
    atomic_write_text(out, tsv(("class", "acc_a", "acc_b", "delta"), table))
    _write_manifest(out, "report-class-delta", values,
                    [Path(values["report_a"]), Path(values["report_b"])], [out.name])
    print(f"wrote {out} with {len(table)} rows")
    return 0


def _cmd_report_rank_dist(values: dict) -> int:
    a = _read_report(values["report_a"])
    b = _read_report(values["report_b"])
    table = rank_distribution(a.rank_list, b.rank_list)
    out = Path(values["out"])
    atomic_write_text(out, tsv(("position", "rank_a", "rank_b"), table.tolist()))
    _write_manifest(out, "report-rank-dist", values,
                    [Path(values["report_a"]), Path(values["report_b"])], [out.name])
    print(f"wrote {out} with {table.shape[0]} rows")
    return 0


def _cmd_gradcheck(values: dict) -> int:
    results = run_gradcheck(trials=values["trials"], seed=values["seed"])
    for r in results:
        status = "ok" if r.passed() else "FAIL"
        print(
            f"trial {r.index:02d}  params={r.n_params:4d}  sigma={r.sigma:.4f}  "
            f"lambda={r.lambda_:.4f}  max_rel_err={r.max_rel_err:.3e}  {status}"
        )
    worst = max(r.max_rel_err for r in results)
    failed = [r.index for r in results if not r.passed()]
    print(f"{len(results)} trials, worst relative error {worst:.3e}, tolerance {DEFAULT_TOLERANCE:.0e}")
    if failed:
        raise ValidationError(f"gradient check failed on trials {failed}")
    return 0


_COMMANDS: dict[str, tuple] = {
    "gen-corpus": (_cmd_gen_corpus, "generate a planted synthetic corpus", [
        *_field_opts(SynthConfig),
        _Opt("out", "str", None, "output corpus path", True),
    ]),
    "pretrain-teacher": (_cmd_pretrain_teacher, "contrastive pretraining on single-frame pairs", [
        # The input dims come from the corpus, the init seed from --seed; a
        # teacher trains without distillation, so it reads no unlabeled split.
        *_field_opts(EncoderConfig, skip=("input_dim_video", "input_dim_text", "seed")),
        *_field_opts(TrainConfig, skip=("betas", "eps", "distill_on_labeled",
                                        "batch_size_unlabeled"),
                     lr=3e-3, max_steps=1500),
        *_field_opts(LossConfig, skip=("lambda_",)),
        _Opt("corpus", "str", None, "single-frame corpus path", True),
        _Opt("out", "str", None, "output checkpoint path", True),
    ]),
    "train-student": (_cmd_train_student, "train a student from teacher init", [
        *_field_opts(LossConfig),
        *_field_opts(TrainConfig, skip=("betas", "eps")),
        _Opt("teacher", "str", None, "teacher checkpoint path", True),
        _Opt("corpus", "str", None, "video corpus path", True),
        _Opt("out", "str", None, "output checkpoint path", True),
    ]),
    "fuse": (_cmd_fuse, "blend teacher and student weights", [
        *_field_opts(FusionConfig),
        _Opt("teacher", "str", None, "teacher checkpoint path", True),
        _Opt("student", "str", None, "student checkpoint path", True),
        _Opt("out", "str", None, "output checkpoint path", True),
    ]),
    "sweep-alpha": (_cmd_sweep_alpha, "evaluate fused models across alphas", [
        _Opt("alphas", "str", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
             "comma-separated alpha values"),
        _Opt("impact_alpha", "float", 0.4, "alpha for the impact table"),
        _Opt("templates", "str", DEFAULT_TEMPLATE, "prompt templates, | separated"),
        _Opt("teacher", "str", None, "teacher checkpoint path", True),
        _Opt("student", "str", None, "student checkpoint path", True),
        _Opt("corpus", "str", None, "evaluation corpus path", True),
        _Opt("out", "str", None, "output stem", True),
    ]),
    "eval-retrieval": (_cmd_eval_retrieval, "text-to-video retrieval evaluation", [
        _Opt("templates", "str", DEFAULT_TEMPLATE, "prompt templates, | separated"),
        _Opt("ckpt", "str", None, "model checkpoint path", True),
        _Opt("corpus", "str", None, "evaluation corpus path", True),
        _Opt("out", "str", None, "output stem", True),
    ]),
    "eval-classify": (_cmd_eval_classify, "prompt-based zero-shot classification", [
        _Opt("templates", "str", DEFAULT_TEMPLATE, "prompt templates, | separated"),
        _Opt("ckpt", "str", None, "model checkpoint path", True),
        _Opt("corpus", "str", None, "evaluation corpus path", True),
        _Opt("out", "str", None, "output stem", True),
    ]),
    "report-class-delta": (_cmd_report_class_delta, "per-class accuracy differences", [
        _Opt("limit", "int", 0, "keep top/bottom N rows (0 = all)"),
        _Opt("report_a", "str", None, "first report .jsonl", True),
        _Opt("report_b", "str", None, "second report .jsonl", True),
        _Opt("out", "str", None, "output tsv path", True),
    ]),
    "report-rank-dist": (_cmd_report_rank_dist, "sorted rank distribution export", [
        _Opt("report_a", "str", None, "first report .jsonl", True),
        _Opt("report_b", "str", None, "second report .jsonl", True),
        _Opt("out", "str", None, "output tsv path", True),
    ]),
    "gradcheck": (_cmd_gradcheck, "finite-difference gradient verification", [
        _Opt("trials", "int", 20, "number of random instances"),
        _Opt("seed", "int", 20240, "instance seed"),
    ]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dfuse", description="teacher-student dual-encoder pipeline")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, opts) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="key = value config file")
        for o in opts:
            cmd.add_argument(o.flag, dest=o.name, default=None, metavar=o.kind.upper(),
                             help=o.help + (" (required)" if o.required else f" [{o.default}]"))
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Write ``--opt -v`` as ``--opt=-v``, so that the value reaches its option.

    argparse reads a token that starts with one dash and is not a plain
    number, such as ``-0.1,0.5``, as an unknown flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return argv
    flags = {"--config", *(o.flag for o in _COMMANDS[argv[0]][2])}
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in flags and token[:1] == "-" and token[:2] != "--" \
                and token != "-h":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def cli_dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_dash_values(list(argv)))
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        runner, _, opts = _COMMANDS[ns.command]
        return runner(_resolve(opts, ns))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    finally:  # glibc keeps freed pages, as many as the heap's layout happens to leave
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def main() -> int:
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
