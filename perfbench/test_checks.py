"""The output checks accept real outputs and reject deliberately corrupted ones.

Run with ``python3 -m pytest perfbench -q`` from the repository root. The
evaluate workload's commands run on a small video corpus and briefly trained
checkpoints, then single artifacts are corrupted one at a time.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dfuse.checkpointio import load_checkpoint, save_checkpoint  # noqa: E402
from dfuse.cli import cli_dispatch  # noqa: E402

from checks import check_gradcheck  # noqa: E402
from workloads import evaluate_check, evaluate_round_commands, evaluate_setup_commands  # noqa: E402

SEED = 5


def small_videos(seed, out):
    return ["gen-corpus", "--n-labeled-train", "64", "--n-labeled-val", "16",
            "--n-unlabeled", "32", "--n-eval", "64", "--seed", str(seed), "--out", str(out)]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluate")
    setup, out = root / "setup", root / "round"
    setup.mkdir()
    out.mkdir()
    commands = evaluate_setup_commands(SEED, setup, teacher_steps="20", student_steps="5",
                                       videos_cmd=small_videos)
    for cmd in commands + evaluate_round_commands(SEED, setup, out):
        assert cli_dispatch(cmd) == 0, cmd
    return root


@pytest.fixture
def outputs(pristine, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(pristine, root)
    return root / "setup", root / "round"


def test_real_outputs_pass(outputs):
    setup, out = outputs
    assert evaluate_check(SEED, setup, out, "") == []


def test_flipped_report_byte_is_rejected(outputs):
    setup, out = outputs
    path = out / "rep_fused0.tsv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    errors = evaluate_check(SEED, setup, out, "")
    assert any("rep_fused0.tsv is not byte-equal" in e for e in errors), errors


def test_perturbed_fused_weight_is_rejected(outputs):
    setup, out = outputs
    ckpt = load_checkpoint(out / "fused04.ckpt")
    ckpt.params.values[7] += 1e-9
    save_checkpoint(out / "fused04.ckpt", ckpt)
    errors = evaluate_check(SEED, setup, out, "")
    assert any("fused04.ckpt: fused weights differ" in e for e in errors), errors


def _rewrite_report(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        edit(rec)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_wrong_rank_is_rejected(outputs):
    setup, out = outputs

    def edit(rec):
        if rec["record"] == "ranks":
            rec["ranks"][3] = rec["ranks"][3] % rec["gallery_size"] + 1

    _rewrite_report(out / "rep_fused04.jsonl", edit)
    errors = evaluate_check(SEED, setup, out, "")
    assert any("rep_fused04.jsonl: 1 ranks disagree" in e for e in errors), errors


def test_summary_that_disagrees_with_its_ranks_is_rejected(outputs):
    setup, out = outputs

    def edit(rec):
        if rec["record"] == "summary":
            rec["mdr"] += 1

    _rewrite_report(out / "rep_teacher_img.jsonl", edit)
    errors = evaluate_check(SEED, setup, out, "")
    assert any("rep_teacher_img.jsonl: mdr" in e for e in errors), errors


def _edit_tsv_cell(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split("\t")
    cells[col] = edit(cells[col])
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_wrong_class_delta_is_rejected(outputs):
    setup, out = outputs
    _edit_tsv_cell(out / "delta.tsv", 2, 3, lambda d: repr(float(d) + 1e-6))
    errors = evaluate_check(SEED, setup, out, "")
    assert any("delta.tsv: 1 rows differ" in e for e in errors), errors


def test_wrong_rank_distribution_is_rejected(outputs):
    setup, out = outputs
    _edit_tsv_cell(out / "dist.tsv", 5, 2, lambda r: str(int(r) + 1))
    errors = evaluate_check(SEED, setup, out, "")
    assert any("dist.tsv: 1 rows differ" in e for e in errors), errors


def test_gradcheck_check():
    line = "trial {:02d}  params= 120  sigma=0.1000  lambda=0.0000  max_rel_err={}  ok"
    good = "\n".join(line.format(i, "3.1e-07") for i in range(3))
    assert check_gradcheck(good, 3) == []
    assert check_gradcheck(good, 4) == ["gradcheck printed 3 trials, asked for 4"]
    bad = good + "\n" + line.format(3, "2.000e-04")
    assert any("at or above" in e for e in check_gradcheck(bad, 4))
