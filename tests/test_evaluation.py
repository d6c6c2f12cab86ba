import io
import json

import numpy as np
import pytest

from dfuse.corpus import prompt_feature_fn
from dfuse.encoder import encode_video_batch, init_params
from dfuse.errors import UsageError
from dfuse.evaluation import (
    DEFAULT_TEMPLATE,
    SUMMARY_METRICS,
    EvalReport,
    PromptSet,
    RankList,
    build_prompt_set,
    class_embeddings,
    delta_table,
    evaluate_model,
    median_rank,
    parse_report_records,
    prepare_eval,
    rank_distribution,
    ranked_classes,
    recall_at_k,
    report_jsonl,
    report_table,
    retrieval_ranks,
    topk_accuracy,
)
from naive import (
    loop_class_embeddings,
    naive_median,
    naive_ranks,
    naive_recall,
    naive_topk,
    unit_rows,
)


class TestRetrievalRanks:
    def test_identity_similarity_all_rank_one(self):
        eye = np.eye(5)
        ranks = retrieval_ranks(eye, eye, np.arange(5))
        np.testing.assert_array_equal(ranks.ranks, np.ones(5))

    def test_identical_gallery_pessimistic_ties(self):
        rng = np.random.default_rng(0)
        q = unit_rows(rng, 3, 4)
        g = np.tile(unit_rows(rng, 1, 4), (6, 1))
        ranks = retrieval_ranks(q, g, np.array([0, 3, 5]))
        np.testing.assert_array_equal(ranks.ranks, np.full(3, 6))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            nq, ng, d = (int(x) for x in rng.integers(2, 12, size=3))
            q, g = unit_rows(rng, nq, d), unit_rows(rng, ng, d)
            true_index = rng.integers(0, ng, size=nq)
            got = retrieval_ranks(q, g, true_index)
            sims = q @ g.T
            np.testing.assert_array_equal(got.ranks, naive_ranks(sims, true_index))
            assert got.gallery_size == ng

    def test_gallery_permutation_invariance(self):
        rng = np.random.default_rng(2)
        q, g = unit_rows(rng, 6, 5), unit_rows(rng, 9, 5)
        true_index = rng.integers(0, 9, size=6)
        base = retrieval_ranks(q, g, true_index)
        perm = rng.permutation(9)
        inverse = np.argsort(perm)
        permuted = retrieval_ranks(q, g[perm], inverse[true_index])
        np.testing.assert_array_equal(base.ranks, permuted.ranks)

    def test_exact_ties_match_sort_oracle(self):
        # Small integer entries make many dot products tie exactly.
        rng = np.random.default_rng(14)
        for _ in range(30):
            nq, ng, d = (int(x) for x in rng.integers(2, 12, size=3))
            q = rng.integers(-1, 2, size=(nq, d)).astype(float)
            g = rng.integers(-1, 2, size=(ng, d)).astype(float)
            g[1:1 + ng // 2] = g[0]  # duplicate gallery rows tie for every query
            true_index = rng.integers(0, ng, size=nq)
            sims = q @ g.T
            got = retrieval_ranks(q, g, true_index)
            np.testing.assert_array_equal(got.ranks, naive_ranks(sims, true_index))

    def test_errors(self):
        rng = np.random.default_rng(3)
        q, g = unit_rows(rng, 2, 3), unit_rows(rng, 4, 3)
        with pytest.raises(UsageError):
            retrieval_ranks(q, g, np.array([0, 4]))
        with pytest.raises(UsageError):
            retrieval_ranks(q, unit_rows(rng, 4, 2), np.array([0, 1]))
        with pytest.raises(UsageError):
            retrieval_ranks(q, g[:0], np.array([0, 1]))


class TestRecallAndMedian:
    def test_recall_examples(self):
        assert recall_at_k(RankList(np.array([1, 1, 1]), 5), 1) == 1.0
        assert recall_at_k(RankList(np.array([2, 6, 11]), 20), 5) == pytest.approx(1 / 3)

    def test_recall_at_gallery_size_is_one(self):
        rng = np.random.default_rng(4)
        ranks = RankList(rng.integers(1, 21, size=15), 20)
        assert recall_at_k(ranks, 20) == 1.0

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(5)
        ranks = RankList(rng.integers(1, 50, size=40), 50)
        values = [recall_at_k(ranks, k) for k in range(1, 51)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for k in (1, 5, 10):
            assert recall_at_k(ranks, k) == naive_recall(ranks.ranks.tolist(), k)

    def test_median_examples(self):
        assert median_rank(RankList(np.array([1, 2, 3]), 5)) == 2
        assert median_rank(RankList(np.array([1, 2, 3, 4]), 5)) == 2
        assert median_rank(RankList(np.ones(7, dtype=int), 5)) == 1

    def test_median_matches_oracle_and_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, size = int(rng.integers(1, 30)), 40
            ranks = RankList(rng.integers(1, size + 1, size=n), size)
            assert median_rank(ranks) == naive_median(ranks.ranks.tolist())
            assert median_rank(ranks) <= size

    def test_errors(self):
        with pytest.raises(UsageError):
            median_rank(RankList(np.array([], dtype=int), 5))
        with pytest.raises(UsageError):
            recall_at_k(RankList(np.array([1]), 5), 0)
        with pytest.raises(UsageError):
            RankList(np.array([0]), 5)
        with pytest.raises(UsageError):
            RankList(np.array([6]), 5)


class TestTopkAccuracy:
    def test_all_correct(self):
        preds = [[0], [1], [2]]
        assert topk_accuracy(preds, [0, 1, 2], 1) == 1.0

    def test_label_at_position_three(self):
        preds = [[7, 8, 0, 9, 10]] * 4
        assert topk_accuracy(preds, [0, 0, 0, 0], 1) == 0.0
        assert topk_accuracy(preds, [0, 0, 0, 0], 5) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, c = int(rng.integers(1, 15)), int(rng.integers(2, 8))
            preds = [rng.permutation(c).tolist() for _ in range(n)]
            labels = rng.integers(0, c, size=n).tolist()
            k = int(rng.integers(1, c + 1))
            assert topk_accuracy(preds, labels, k) == naive_topk(preds, labels, k)

    def test_ranked_array_matches_loop_oracle(self):
        # The shape evaluate_model passes: an argsort order array and label array.
        rng = np.random.default_rng(15)
        for _ in range(20):
            n, c = int(rng.integers(1, 40)), int(rng.integers(2, 10))
            order = np.argsort(-rng.standard_normal((n, c)), axis=1, kind="stable")
            labels = rng.integers(0, c, size=n)
            for k in range(1, c + 2):
                want = naive_topk(order.tolist(), labels.tolist(), k)
                got = topk_accuracy(order, labels, k)
                assert type(got) is float and got == want  # reports print repr()
                assert topk_accuracy(order.tolist(), labels.tolist(), k) == want

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            topk_accuracy([[0]], [0, 1], 1)

    def test_empty_and_ragged_inputs_are_usage_errors(self):
        with pytest.raises(UsageError):
            topk_accuracy(np.zeros((0, 3), dtype=int), [], 1)
        with pytest.raises(UsageError):
            topk_accuracy([0, 1], [0, 1], 1)


def _prompt_set_from_features(features_by_class, templates=("a video of a person {c}",)):
    classes = tuple(f"class_{i}" for i in range(len(features_by_class)))
    table = np.array([[f] * len(templates) for f in features_by_class], dtype=float)
    return PromptSet(tuple(templates), classes, table)


def _tied_tower_params(enc_cfg):
    # text tower := video tower with zero biases, so identical raw content
    # embeds identically on both sides and tanh stays odd.
    params = init_params(enc_cfg)
    params.tensor("video.b1")[...] = 0.0
    params.tensor("video.b2")[...] = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        params.tensor(f"text.{name}")[...] = params.tensor(f"video.{name}")
    return params


def classify_zero_shot(params, frames, prompts, enc_cfg, k):
    """Top-k class names for one video, ranked as ``evaluate_model`` ranks them."""
    z = encode_video_batch(params, frames[None], enc_cfg)[0]
    scores = np.einsum("ce,e->c", class_embeddings(params, prompts, enc_cfg), z)[None, :]
    return [prompts.classes[i] for i in ranked_classes(scores)[0][:k]]


class TestClassifyZeroShot:
    def test_matching_class_wins(self, enc_cfg):
        import dataclasses
        cfg = dataclasses.replace(enc_cfg, input_dim_text=enc_cfg.input_dim_video)
        params = _tied_tower_params(cfg)
        rng = np.random.default_rng(8)
        frame = rng.standard_normal(cfg.input_dim_video)
        prompts = _prompt_set_from_features([frame, -frame])
        stack = np.tile(frame, (3, 1))
        assert classify_zero_shot(params, stack, prompts, cfg, 1) == ["class_0"]
        assert classify_zero_shot(params, stack, prompts, cfg, 2) == ["class_0", "class_1"]

    def test_exact_tie_prefers_lower_index(self, enc_cfg):
        import dataclasses
        cfg = dataclasses.replace(enc_cfg, input_dim_text=enc_cfg.input_dim_video)
        params = _tied_tower_params(cfg)
        rng = np.random.default_rng(9)
        frame = rng.standard_normal(cfg.input_dim_video)
        prompts = _prompt_set_from_features([frame, frame, -frame])
        order = classify_zero_shot(params, np.tile(frame, (2, 1)), prompts, cfg, 3)
        assert order == ["class_0", "class_1", "class_2"]

    def test_relabeling_consistency(self, enc_cfg):
        import dataclasses
        cfg = dataclasses.replace(enc_cfg, input_dim_text=enc_cfg.input_dim_video)
        params = _tied_tower_params(cfg)
        rng = np.random.default_rng(10)
        feats = [rng.standard_normal(cfg.input_dim_video) for _ in range(3)]
        video = np.tile(feats[1], (2, 1))
        base = classify_zero_shot(params, video, _prompt_set_from_features(feats), cfg, 3)
        swapped = classify_zero_shot(
            params, video, _prompt_set_from_features([feats[2], feats[1], feats[0]]), cfg, 3
        )
        # class_1's feature is now under a different label but must stay on top
        assert base[0] == "class_1" and swapped[0] == "class_1"

    def test_multi_template_embedding_is_normalized_mean(self, enc_cfg, params):
        rng = np.random.default_rng(11)
        feats = {0: rng.standard_normal((2, enc_cfg.input_dim_text)),
                 1: rng.standard_normal((2, enc_cfg.input_dim_text))}
        prompts = PromptSet(
            ("a video of a person {c}", "a clip of {c}"),
            ("a", "b"),
            np.stack([feats[0], feats[1]]),
        )
        emb = class_embeddings(params, prompts, enc_cfg)
        from dfuse.encoder import encode_text_batch
        from dfuse.numerics import l2_normalize_rows

        for c in range(2):
            z = encode_text_batch(params, feats[c], enc_cfg)
            want = l2_normalize_rows(z.mean(axis=0, keepdims=True))[0]
            np.testing.assert_allclose(emb[c], want, atol=1e-12)

    @pytest.mark.parametrize("n_templates", [1, 2, 3, 5])
    def test_one_forward_matches_per_class_loop_bitwise(self, tiny_corpus, tiny_enc,
                                                        n_templates):
        from dfuse.encoder import encode_text_batch
        from dfuse.numerics import l2_normalize_rows

        templates = ["a video of a person {c}", "a clip of {c}", "{c}", "someone doing {c}",
                     "footage: {c}"][:n_templates]
        prompts = build_prompt_set(tiny_corpus.synth, templates)
        assert prompts.features.shape == (tiny_corpus.synth.n_concepts, n_templates,
                                          tiny_enc.input_dim_text)
        params = init_params(tiny_enc)
        want = loop_class_embeddings(
            lambda rows: encode_text_batch(params, rows, tiny_enc), l2_normalize_rows,
            prompts.features,
        )
        np.testing.assert_array_equal(class_embeddings(params, prompts, tiny_enc), want)

    def test_prompt_features_match_the_prompt_feature_generator(self, tiny_synth):
        prompts = build_prompt_set(tiny_synth, ["a video of a person {c}", "a clip of {c}"])
        for c, name in enumerate(prompts.classes):
            for t, template in enumerate(prompts.templates):
                want = prompt_feature_fn(tiny_synth)(template.format(c=name), c)
                np.testing.assert_array_equal(prompts.features[c, t], want)

    def test_prompt_set_validation(self):
        feats = np.zeros((2, 1, 3))
        with pytest.raises(UsageError):
            PromptSet(("no placeholder",), ("a", "b"), feats)
        with pytest.raises(UsageError):
            PromptSet(("{c} and {c}",), ("a", "b"), feats)
        for template in ("{c} {x}", "{{c}}", "{c!s}", "{c:>4}", "{c.x}", "{0}{c}"):
            with pytest.raises(UsageError, match="no other format field"):
                PromptSet((template,), ("a", "b"), feats)
        for template in ("{c} {", "{c} }"):
            with pytest.raises(UsageError, match="not a valid format string"):
                PromptSet((template,), ("a", "b"), feats)
        PromptSet(("{{literal}} {c}",), ("a", "b"), feats)
        with pytest.raises(UsageError):
            PromptSet(("{c}",), ("only",), feats[:1])
        with pytest.raises(UsageError, match="prompt features must be"):
            PromptSet(("{c}",), ("a", "b"), np.zeros((2, 2, 3)))


class TestDeltaTable:
    def test_equal_reports_all_zero(self):
        acc = {"a": 0.5, "b": 0.25}
        assert all(d == 0.0 for _, d in delta_table(acc, acc))

    def test_sorted_descending_with_name_ties(self):
        rows = delta_table({"a": 0.1, "b": 0.9, "c": 0.5}, {"a": 0.1, "b": 0.1, "c": 0.1})
        assert [name for name, _ in rows] == ["b", "c", "a"]

    def test_limit_keeps_top_and_bottom(self):
        acc_a = {f"c{i}": i / 10 for i in range(10)}
        acc_b = {f"c{i}": 0.0 for i in range(10)}
        rows = delta_table(acc_a, acc_b, limit=2)
        assert len(rows) == 4
        assert [name for name, _ in rows] == ["c9", "c8", "c1", "c0"]

    def test_published_difference_arithmetic(self):
        # Aggregate-level differences reproduce published values at their
        # printed precision once the float subtraction is rounded back.
        (_, d_r5), = delta_table({"m": 59.8}, {"m": 55.1})
        assert round(d_r5, 1) == 4.7
        (_, d_top1), = delta_table({"u": 73.3}, {"u": 74.5})
        assert round(d_top1, 1) == -1.2

    def test_class_set_mismatch(self):
        with pytest.raises(UsageError):
            delta_table({"a": 0.1}, {"b": 0.1})


class TestRankDistribution:
    def test_identical_lists_identical_columns(self):
        ranks = RankList(np.array([3, 1, 2]), 5)
        table = rank_distribution(ranks, ranks)
        np.testing.assert_array_equal(table[:, 1], table[:, 2])
        np.testing.assert_array_equal(table[:, 0], [1, 2, 3])

    def test_columns_non_decreasing(self):
        rng = np.random.default_rng(12)
        a = RankList(rng.integers(1, 30, size=25), 30)
        b = RankList(rng.integers(1, 30, size=25), 30)
        table = rank_distribution(a, b)
        assert np.all(np.diff(table[:, 1]) >= 0)
        assert np.all(np.diff(table[:, 2]) >= 0)

    def test_sorted_dominance_implies_recall_dominance(self):
        rng = np.random.default_rng(13)
        base = rng.integers(1, 20, size=30)
        better = np.maximum(base - rng.integers(0, 3, size=30), 1)
        a, b = RankList(better, 20), RankList(base, 20)
        table = rank_distribution(a, b)
        assert np.all(table[:, 1] <= table[:, 2])
        for k in range(1, 21):
            assert recall_at_k(a, k) >= recall_at_k(b, k)

    def test_count_mismatch(self):
        with pytest.raises(UsageError):
            rank_distribution(RankList(np.array([1]), 3), RankList(np.array([1, 2]), 3))



def _summary(top1=0.5, top5=0.9, r1=0.1, r5=0.6, r10=0.7, mdr=1):
    return {"top1": top1, "top5": top5, "r_at_1": r1, "r_at_5": r5, "r_at_10": r10, "mdr": mdr}


class TestEvalReport:
    def test_invariant_enforcement(self):
        ranks = RankList(np.array([1, 2]), 4)
        with pytest.raises(UsageError):
            EvalReport(_summary(top1=0.9, top5=0.5), {}, {}, ranks)
        with pytest.raises(UsageError):
            EvalReport(_summary(r1=0.9), {}, {}, ranks)
        with pytest.raises(UsageError):
            EvalReport(_summary(), {"a": 1.5}, {"a": 2}, ranks)

    def test_summary_keeps_only_the_metrics_in_order(self):
        ranks = RankList(np.array([1, 2]), 4)
        metrics = {"record": "summary", **dict(reversed(_summary().items())), "n_queries": 2}
        assert list(EvalReport(metrics, {}, {}, ranks).summary) == list(SUMMARY_METRICS)


class TestEvaluateModel:
    def test_full_report_on_tiny_corpus(self, tiny_corpus, tiny_enc):
        params = init_params(tiny_enc)
        prompts = build_prompt_set(tiny_corpus.synth)
        report = evaluate_model(params, prepare_eval(tiny_corpus, tiny_enc, prompts), tiny_enc)
        s = report.summary
        assert s["top5"] >= s["top1"]
        assert s["r_at_10"] >= s["r_at_5"] >= s["r_at_1"]
        assert sum(report.per_class_count.values()) == len(report.rank_list)
        assert len(report.rank_list) == 16

    def test_aggregate_delta_identity(self, tiny_corpus, tiny_enc):
        import dataclasses
        params_a = init_params(tiny_enc)
        params_b = init_params(dataclasses.replace(tiny_enc, seed=77))
        inputs = prepare_eval(tiny_corpus, tiny_enc, build_prompt_set(tiny_corpus.synth))
        rep_a = evaluate_model(params_a, inputs, tiny_enc)
        rep_b = evaluate_model(params_b, inputs, tiny_enc)
        rows = dict(delta_table(rep_a.per_class_acc, rep_b.per_class_acc))
        counts = rep_a.per_class_count
        weighted = sum(rows[c] * counts[c] for c in rows) / sum(counts.values())
        assert weighted == pytest.approx(rep_a.summary["top1"] - rep_b.summary["top1"],
                                         abs=1e-12)

    def test_report_round_trip(self, tiny_corpus, tiny_enc):
        params = init_params(tiny_enc)
        prompts = build_prompt_set(tiny_corpus.synth)
        report = evaluate_model(params, prepare_eval(tiny_corpus, tiny_enc, prompts), tiny_enc)
        parsed = parse_report_records(io.StringIO(report_jsonl(report)))
        assert parsed.summary == report.summary
        assert parsed.per_class_acc == report.per_class_acc
        assert parsed.per_class_count == report.per_class_count
        np.testing.assert_array_equal(parsed.rank_list.ranks, report.rank_list.ranks)
        table = report_table(report)
        assert table.startswith("metric\tvalue")
        assert f"mdr\t{report.summary['mdr']}" in table

    def _report_lines(self, tiny_corpus, tiny_enc):
        inputs = prepare_eval(tiny_corpus, tiny_enc, build_prompt_set(tiny_corpus.synth))
        report = evaluate_model(init_params(tiny_enc), inputs, tiny_enc)
        return report_jsonl(report).splitlines(keepends=True)

    def test_report_json_list_line_names_line(self, tiny_corpus, tiny_enc):
        lines = self._report_lines(tiny_corpus, tiny_enc)
        lines[1] = "[1, 2]\n"
        with pytest.raises(UsageError, match="^report: line 2: expected a JSON object$"):
            parse_report_records(lines)

    @pytest.mark.parametrize("key", ["accuracy", "count"])
    def test_report_per_class_missing_key_names_line(self, tiny_corpus, tiny_enc, key):
        lines = self._report_lines(tiny_corpus, tiny_enc)
        record = json.loads(lines[2])
        assert record["record"] == "per_class"
        del record[key]
        lines[2] = json.dumps(record) + "\n"
        with pytest.raises(UsageError, match=f"^report: line 3: per_class record is missing '{key}'$"):
            parse_report_records(lines)

    def test_report_non_numeric_accuracy_names_line(self, tiny_corpus, tiny_enc):
        lines = self._report_lines(tiny_corpus, tiny_enc)
        record = json.loads(lines[2])
        record["accuracy"] = "x"
        lines[2] = json.dumps(record) + "\n"
        with pytest.raises(UsageError, match="^report: line 3: malformed per_class record: "):
            parse_report_records(lines)

    def test_report_accuracy_outside_unit_interval_names_line(self, tiny_corpus, tiny_enc):
        lines = self._report_lines(tiny_corpus, tiny_enc)
        record = json.loads(lines[2])
        record["accuracy"] = 1.5
        lines[2] = json.dumps(record) + "\n"
        with pytest.raises(UsageError, match=r"^report: line 3: malformed per_class record: "
                                             r"accuracy must lie in \[0, 1\], got 1.5$"):
            parse_report_records(lines)

    def test_report_line_nested_too_deeply_names_line(self, tiny_corpus, tiny_enc):
        lines = self._report_lines(tiny_corpus, tiny_enc)
        lines[1] = "[" * 100_000 + "\n"
        with pytest.raises(UsageError, match=r"^report: line 2: invalid JSON \(nested too deeply\)$"):
            parse_report_records(lines)

    def test_default_template_matches_published_prompt(self):
        assert DEFAULT_TEMPLATE == "a video of a person {c}"
