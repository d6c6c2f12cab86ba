"""Zero-shot evaluation: prompt classification, retrieval metrics, diagnostics.

Classification embeds each class through one or more prompt templates,
averages the unit-norm template embeddings, renormalizes, and picks the class
with the highest dot product against the video embedding (ties broken by
ascending class index). Retrieval ranks use a pessimistic tie policy: gallery
items tied with the true item count as ranked ahead of it, so reported
metrics never flatter the model. The even-count median returns the lower
middle element, keeping median ranks integral.

Evaluation has two steps. ``prepare_eval`` does the work that does not depend
on the weights, once per corpus and prompt set: it samples the eval frames,
stacks the eval texts and turns each eval video's ``class_name`` into a class
index. ``evaluate_model`` then does only the weight-dependent work for one
model: two tower forwards over the eval pairs, one text forward over every
(class, template) prompt row, the ranks and the metrics. A ``PromptSet``
holds its raw prompt features as one ``(classes, templates, d_t)`` array,
built once by ``build_prompt_set``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, class_name_for, prompt_feature_fn
from .encoder import (
    EncoderConfig,
    ParamVector,
    encode_sampled,
    encode_text_batch,
    sample_frames,
)
from .errors import UsageError
from .fileio import tsv
from .numerics import as_matrix, l2_normalize_rows

DEFAULT_TEMPLATE = "a video of a person {c}"
RECALL_KS = (1, 5, 10)
SUMMARY_METRICS = ("top1", "top5", "r_at_1", "r_at_5", "r_at_10", "mdr")


def _check_prompts(templates: tuple[str, ...], classes: tuple[str, ...]) -> None:
    if len(templates) < 1:
        raise UsageError("prompt set needs at least one template")
    if len(classes) < 2:
        raise UsageError("prompt set needs at least two classes")
    import string  # here, not at module level: it adds about 1 ms to every command's import

    for t in templates:
        # Exactly one plain {c} field: anything else would fail, or drop the
        # class name, when the template is formatted.
        try:
            fields = [(name, spec, conv) for _, name, spec, conv in string.Formatter().parse(t)
                      if name is not None]
        except ValueError as exc:
            raise UsageError(f"template {t!r} is not a valid format string: {exc}") from None
        if fields != [("c", "", None)]:
            raise UsageError(
                f"template {t!r} must contain the placeholder {{c}} exactly once "
                "and no other format field"
            )


@dataclass(frozen=True, eq=False)
class PromptSet:
    """Prompt templates, class names and the raw text features of every prompt.

    ``features[c, t]`` is the raw text-feature vector of class ``c`` written
    with template ``t``: a ``(classes, templates, d_t)`` float64 array.
    """

    templates: tuple[str, ...]
    classes: tuple[str, ...]
    features: np.ndarray

    def __post_init__(self):
        _check_prompts(self.templates, self.classes)
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 3 or features.shape[:2] != (len(self.classes), len(self.templates)):
            raise UsageError(
                f"prompt features must be a ({len(self.classes)}, {len(self.templates)}, d_t) "
                f"array, got shape {features.shape}"
            )
        object.__setattr__(self, "features", features)


def build_prompt_set(synth, templates: Sequence[str] = (DEFAULT_TEMPLATE,)) -> PromptSet:
    """Prompt set over a synthetic corpus's concept classes, features built once."""
    classes = tuple(class_name_for(k, synth.n_concepts) for k in range(synth.n_concepts))
    templates = tuple(templates)
    _check_prompts(templates, classes)  # before any template is formatted
    raw = prompt_feature_fn(synth)
    features = np.array([[raw(t.format(c=name), k) for t in templates]
                         for k, name in enumerate(classes)])
    return PromptSet(templates, classes, features)


def class_embeddings(params: ParamVector, prompts: PromptSet, enc_cfg: EncoderConfig) -> np.ndarray:
    """One unit-norm embedding per class: normalized mean of template embeddings.

    One text forward covers every (class, template) row; rows are encoded
    independently, so this has the bits of one forward per class.
    """
    n_classes, n_templates, d_t = prompts.features.shape
    z = encode_text_batch(params, prompts.features.reshape(n_classes * n_templates, d_t), enc_cfg)
    mean = np.einsum("cte->ce", z.reshape(n_classes, n_templates, -1)) / n_templates
    return l2_normalize_rows(mean)


def ranked_classes(scores: np.ndarray) -> np.ndarray:
    """Row-wise class order, best first; exact ties keep ascending class index."""
    scores = as_matrix(scores, "class scores")
    return np.argsort(-scores, axis=1, kind="stable")


def topk_accuracy(predictions, labels, k: int) -> float:
    """Fraction of items whose label appears among the first k predictions.

    ``predictions`` is a 2-D array (or equal-length lists) of class indices,
    one ranked row per item.
    """
    if len(predictions) != len(labels):
        raise UsageError(f"{len(predictions)} prediction lists vs {len(labels)} labels")
    if k < 1:
        raise UsageError("k must be >= 1")
    if len(labels) == 0:
        raise UsageError("no items to score")
    ranked = np.asarray(predictions)
    if ranked.ndim != 2:
        raise UsageError("predictions must be a 2-D array of class indices")
    hits = int(np.count_nonzero((ranked[:, :k] == np.asarray(labels)[:, None]).any(axis=1)))
    return hits / len(labels)


@dataclass(eq=False)
class RankList:
    """Rank of the true gallery item for each query; 1 is best."""

    ranks: np.ndarray
    gallery_size: int

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        if self.ranks.ndim != 1:
            raise UsageError("ranks must be a 1-D sequence")
        if self.ranks.size and (self.ranks.min() < 1 or self.ranks.max() > self.gallery_size):
            raise UsageError(
                f"ranks must lie in [1, {self.gallery_size}], "
                f"got [{self.ranks.min()}, {self.ranks.max()}]"
            )

    def __len__(self) -> int:
        return int(self.ranks.size)


def retrieval_ranks(query_emb, gallery_emb, true_index) -> RankList:
    """Rank of each query's true gallery item under dot-product similarity.

    Pessimistic ties: rank = 1 + #{g != true : sim(q, g) >= sim(q, true)}.
    """
    q = as_matrix(query_emb, "query embeddings")
    g = as_matrix(gallery_emb, "gallery embeddings")
    if g.shape[0] == 0:
        raise UsageError("gallery is empty")
    if q.shape[1] != g.shape[1]:
        raise UsageError(f"embedding dims differ: {q.shape[1]} vs {g.shape[1]}")
    true_index = np.asarray(true_index, dtype=np.int64)
    if true_index.shape != (q.shape[0],):
        raise UsageError("true_index must give one gallery index per query")
    if true_index.size and (true_index.min() < 0 or true_index.max() >= g.shape[0]):
        raise UsageError("true_index out of gallery range")
    sims = np.einsum("qe,ge->qg", q, g)
    s_true = sims[np.arange(q.shape[0]), true_index]
    ranks = np.count_nonzero(sims >= s_true[:, None], axis=1)
    return RankList(ranks, gallery_size=int(g.shape[0]))


def recall_at_k(ranks: RankList, k: int) -> float:
    if k < 1:
        raise UsageError("k must be >= 1")
    if len(ranks) == 0:
        raise UsageError("empty rank list")
    return float(np.count_nonzero(ranks.ranks <= k)) / len(ranks)


def median_rank(ranks: RankList) -> int:
    """Median of the ranks; even counts return the lower middle element."""
    if len(ranks) == 0:
        raise UsageError("empty rank list")
    ordered = np.sort(ranks.ranks)
    return int(ordered[(len(ordered) - 1) // 2])


def _summary(metrics: Mapping) -> dict:
    """The ``SUMMARY_METRICS`` of ``metrics``, in that order; ``UsageError``
    unless each is a number (``mdr`` an integer) and they obey the metric
    invariants."""
    missing = [m for m in SUMMARY_METRICS if m not in metrics]
    if missing:
        raise UsageError(f"missing metric {missing[0]!r}")
    summary = {m: metrics[m] for m in SUMMARY_METRICS}
    for m, value in summary.items():
        if isinstance(value, bool) or not isinstance(value, int if m == "mdr" else (int, float)):
            kind = "an integer" if m == "mdr" else "a number"
            raise UsageError(f"{m} must be {kind}, got {value!r}")
        if m != "mdr" and not 0.0 <= value <= 1.0:
            raise UsageError(f"{m} must lie in [0, 1], got {value!r}")
    if summary["top5"] < summary["top1"]:
        raise UsageError("top5 must be >= top1")
    recall = [summary[f"r_at_{k}"] for k in RECALL_KS]
    if any(a > b for a, b in zip(recall, recall[1:])):
        raise UsageError("recall must be non-decreasing in k")
    if summary["mdr"] < 1:
        raise UsageError("median rank must be >= 1")
    return summary


@dataclass(eq=False)
class EvalReport:
    """Metric bundle for one model on one corpus, plus per-query detail.

    ``summary`` maps each of ``SUMMARY_METRICS`` to its value, in that order.
    """

    summary: dict
    per_class_acc: dict[str, float]
    per_class_count: dict[str, int]
    rank_list: RankList

    def __post_init__(self):
        self.summary = _summary(self.summary)
        if any(not 0.0 <= f <= 1.0 for f in self.per_class_acc.values()):
            raise UsageError("report fractions must lie in [0, 1]")
        if set(self.per_class_acc) != set(self.per_class_count):
            raise UsageError("per-class accuracy and count keys must match")


@dataclass(frozen=True, eq=False)
class EvalInputs:
    """The weight-independent inputs of ``evaluate_model``, from ``prepare_eval``."""

    frames: np.ndarray   # (N, n_frames, d_v) sampled eval videos, in pair order
    texts: np.ndarray    # (N, d_t) eval texts, in pair order
    labels: np.ndarray   # (N,) prompt class index of each eval video
    prompts: PromptSet


def prepare_eval(corpus: Corpus, enc_cfg: EncoderConfig, prompts: PromptSet) -> EvalInputs:
    """Sample, stack and label the corpus eval split once, for any number of models."""
    videos, texts = corpus.paired("eval")
    if len(videos) == 0:
        raise UsageError("corpus has no eval pairs")
    frames = sample_frames(videos, enc_cfg)
    class_index = {name: i for i, name in enumerate(prompts.classes)}
    labels = []
    for rec in sorted(corpus.videos("eval"), key=lambda r: r.pair_index):
        if rec.class_name is None or rec.class_name not in class_index:
            raise UsageError(f"eval video {rec.id!r} has no usable class_name")
        labels.append(class_index[rec.class_name])
    return EvalInputs(frames, texts, np.asarray(labels, dtype=np.intp), prompts)


def evaluate_model(params: ParamVector, inputs: EvalInputs, enc_cfg: EncoderConfig) -> EvalReport:
    """Full zero-shot evaluation of one model on prepared eval inputs.

    Text-to-video retrieval over the aligned eval pairs plus prompt-based
    classification of the eval videos against the prompt classes.
    """
    gallery, queries = encode_sampled(params, inputs.frames, inputs.texts, enc_cfg)
    ranks = retrieval_ranks(queries, gallery, np.arange(len(gallery)))

    prompts, labels = inputs.prompts, inputs.labels
    cls_emb = class_embeddings(params, prompts, enc_cfg)
    order = ranked_classes(np.einsum("be,ce->bc", gallery, cls_emb))
    top1 = topk_accuracy(order, labels, 1)
    top5 = topk_accuracy(order, labels, min(5, len(prompts.classes)))

    n_classes = len(prompts.classes)
    counts = np.bincount(labels, minlength=n_classes)
    hits = np.bincount(labels[order[:, 0] == labels], minlength=n_classes)
    per_acc: dict[str, float] = {}
    per_count: dict[str, int] = {}
    for idx, name in enumerate(prompts.classes):
        count = int(counts[idx])
        if count == 0:
            continue
        per_acc[name] = float(hits[idx]) / count
        per_count[name] = count

    summary = {"top1": top1, "top5": top5,
               **{f"r_at_{k}": recall_at_k(ranks, k) for k in RECALL_KS},
               "mdr": median_rank(ranks)}
    return EvalReport(summary, per_acc, per_count, ranks)


def delta_table(
    acc_a: Mapping[str, float], acc_b: Mapping[str, float], limit: int | None = None
) -> list[tuple[str, float]]:
    """Per-class differences a - b, sorted descending (ties by class name).

    With ``limit``, keeps only the top and bottom ``limit`` rows, mirroring
    the largest-gains / largest-losses view.
    """
    if set(acc_a) != set(acc_b):
        raise UsageError("class sets differ between the two reports")
    rows = sorted(
        ((name, acc_a[name] - acc_b[name]) for name in acc_a),
        key=lambda kv: (-kv[1], kv[0]),
    )
    if limit is not None and 2 * limit < len(rows):
        rows = rows[:limit] + rows[-limit:]
    return rows


def per_class_delta(
    report_a: EvalReport, report_b: EvalReport, limit: int | None = None
) -> list[tuple[str, float]]:
    return delta_table(report_a.per_class_acc, report_b.per_class_acc, limit=limit)


def rank_distribution(ranks_a: RankList, ranks_b: RankList) -> np.ndarray:
    """(position, sorted rank of a, sorted rank of b) rows for plotting.

    Each model's ranks are sorted independently, so a curve below another
    means better ranks at every cutoff.
    """
    if len(ranks_a) != len(ranks_b):
        raise UsageError(f"query counts differ: {len(ranks_a)} vs {len(ranks_b)}")
    a = np.sort(ranks_a.ranks)
    b = np.sort(ranks_b.ranks)
    pos = np.arange(1, len(a) + 1, dtype=np.int64)
    return np.stack([pos, a, b], axis=1)


# --- report serialization -------------------------------------------------

def report_table(report: EvalReport) -> str:
    """Human-readable tab-separated metric table."""
    return tsv(("metric", "value"), [*report.summary.items(),
                                     ("n_queries", len(report.rank_list)),
                                     ("gallery_size", report.rank_list.gallery_size)])


def report_records(report: EvalReport) -> list[dict]:
    """Machine-readable line-delimited mirror of the full report."""
    records = [{
        "record": "summary",
        **report.summary,
        "n_queries": len(report.rank_list),
        "gallery_size": report.rank_list.gallery_size,
    }]
    for name in sorted(report.per_class_acc):
        records.append({
            "record": "per_class",
            "class": name,
            "accuracy": report.per_class_acc[name],
            "count": report.per_class_count[name],
        })
    records.append({
        "record": "ranks",
        "gallery_size": report.rank_list.gallery_size,
        "ranks": report.rank_list.ranks.tolist(),
    })
    return records


def report_jsonl(report: EvalReport) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in report_records(report))


def _per_class_entry(payload: dict) -> tuple[str, float, int]:
    name, acc, count = payload["class"], payload["accuracy"], payload["count"]
    if not isinstance(name, str):
        raise TypeError(f"class must be a string, got {name!r}")
    if isinstance(acc, bool) or not isinstance(acc, (int, float)):
        raise TypeError(f"accuracy must be a number, got {acc!r}")
    if not 0.0 <= acc <= 1.0:
        raise ValueError(f"accuracy must lie in [0, 1], got {acc!r}")
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return name, acc, count


def _report_sizes(payload: dict) -> tuple[int, int]:
    """A summary record's ``(n_queries, gallery_size)``."""
    sizes = payload["n_queries"], payload["gallery_size"]
    for name, size in zip(("n_queries", "gallery_size"), sizes):
        if type(size) is not int:
            raise TypeError(f"{name} must be an integer, got {size!r}")
    return sizes


def _rank_list(payload: dict) -> RankList:
    ranks, size = payload["ranks"], payload["gallery_size"]
    if type(ranks) is list:  # numpy would read 1.9 and true as 1
        for rank in ranks:
            if type(rank) is not int:
                raise TypeError(f"ranks must be integers, got {rank!r}")
        ranks = np.asarray(ranks, dtype=np.int64)
    if type(size) is not int:
        raise TypeError(f"gallery_size must be an integer, got {size!r}")
    return RankList(ranks, size)


def parse_report_records(lines, source: str = "report") -> EvalReport:
    """Parse a report's JSON Lines. Every malformed line raises ``UsageError``
    naming ``source`` and the line: a summary record that breaks an
    ``EvalReport`` invariant or whose ``n_queries`` and ``gallery_size``
    disagree with the ranks record, a rank, size or per-class count that is
    not a JSON integer, a count below 1, and a second summary record, ranks
    record or per_class record for one class included."""
    first_line: dict[str, int] = {}  # what a record is -> the line it is on
    summary = None
    per_acc: dict[str, float] = {}
    per_count: dict[str, int] = {}
    ranks = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{source}: line {lineno}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{where}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise UsageError(f"{where}: invalid JSON (nested too deeply)") from None
        if not isinstance(payload, dict):
            raise UsageError(f"{where}: expected a JSON object")
        kind = payload.get("record")
        try:
            if kind == "summary":
                key, summary = "summary record", _summary(payload)
                sizes = _report_sizes(payload)
            elif kind == "per_class":
                name, acc, count = _per_class_entry(payload)
                key = f"per_class record for class {name!r}"
                per_acc[name] = acc
                per_count[name] = count
            elif kind == "ranks":
                key, ranks = "ranks record", _rank_list(payload)
            else:
                continue
        except KeyError as exc:
            raise UsageError(f"{where}: {kind} record is missing {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{where}: malformed {kind} record: {exc}") from None
        if key in first_line:
            raise UsageError(f"{where}: a second {key}; the first is on line {first_line[key]}")
        first_line[key] = lineno
    if summary is None or ranks is None:
        raise UsageError(f"{source}: missing its summary or ranks record")
    if sizes != (len(ranks), ranks.gallery_size):
        raise UsageError(
            f"{source}: line {first_line['summary record']}: summary record counts "
            f"{sizes[0]} queries over {sizes[1]} items, but the ranks record on line "
            f"{first_line['ranks record']} holds {len(ranks)} ranks over {ranks.gallery_size}")
    return EvalReport(summary, per_acc, per_count, ranks)
