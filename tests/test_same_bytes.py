"""tools/same_bytes.py on a tiny matrix: this checkout against itself,
against a copy of its src/ whose Adam epsilon is one float32 ulp larger, and
against a copy that refuses this checkout's checkpoints."""
import importlib
import shutil
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CLIP = "clips/sinusoid_000.mqs"
TINY = [
    ["synth", "--joints", "5", "--frames", "40", "--out", "clips"],
    ["train", CLIP, "--epochs", "1", "--out", "train/a.mqck"],
    ["predict", CLIP, "--checkpoint", "train/a.mqck", "--out", "infer/a.pred.mqs"],
]
FILES = ["clips/sinusoid_000.mqs", "critic2.cfg", "infer/a.pred.mqs", "stdout/00_synth",
         "stdout/01_train", "stdout/02_predict", "train/a.csv", "train/a.mqck"]


@pytest.fixture
def same_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("same_bytes")


def test_tiny_matrix_against_itself_and_one_ulp(same_bytes, tmp_path):
    report = same_bytes.compare({"parent": ROOT, "change": ROOT}, TINY, tmp_path / "self")
    assert report["verdict"] == "identical" and not report["failures"]
    assert sorted(report["files"]) == FILES
    for path, h in report["files"].items():
        assert h["parent"] == h["change"] and len(set(h["parent"])) == 1, path
    assert {p for p, h in report["files"].items() if "cross" in h} == {
        "infer/a.pred.mqs", "stdout/02_predict"}

    # Adam computes in float32, where a float64 ulp of its epsilon rounds away
    ulp = tmp_path / "ulp"
    shutil.copytree(ROOT / "src", ulp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    train_py = ulp / "src" / "mqmotion" / "train.py"
    text = train_py.read_text()
    eps = float(np.nextafter(np.float32(1e-8), np.float32(1.0)))
    edited = text.replace("_ADAM_EPS = 0.9, 0.999, 1e-8", f"_ADAM_EPS = 0.9, 0.999, {eps!r}")
    assert edited != text
    train_py.write_text(edited)
    report = same_bytes.compare({"parent": ROOT, "change": ulp}, TINY, tmp_path / "edited")
    assert report["verdict"] == "different" and not report["failures"]
    assert report["reproducible"] == {"parent": True, "change": True}
    assert report["differing"] == ["infer/a.pred.mqs", "train/a.mqck"]
    # the edited code predicts the parent's bytes from the parent's checkpoint
    pred = report["files"]["infer/a.pred.mqs"]
    assert pred["cross"] == pred["parent"][0] != pred["change"][0]
    # one logged step precedes the first Adam update, so the log keeps its bytes
    diffs = report["differences"]
    assert 0 < diffs["change"]["infer/a.pred.mqs"]["max_abs_mm"] < 1e-3
    assert diffs["cross"] == {"infer/a.pred.mqs": {"max_abs_mm": 0.0}}


def test_a_change_that_refuses_the_parents_checkpoint(same_bytes, tmp_path):
    # a change to the checkpoint format: the change's own runs load their
    # checkpoints, and its cross predict refuses the parent's with one line
    bumped = tmp_path / "bumped"
    shutil.copytree(ROOT / "src", bumped / "src", ignore=shutil.ignore_patterns("__pycache__"))
    train_py = bumped / "src" / "mqmotion" / "train.py"
    text = train_py.read_text()
    edited = text.replace("CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3")
    assert edited != text
    train_py.write_text(edited)
    report = same_bytes.compare({"parent": ROOT, "change": bumped}, TINY, tmp_path / "work")
    assert report["verdict"] == "different" and not report["failures"]
    assert report["cross_refused"] == [{
        "command": TINY[2],
        "stderr": "mqmotion: code=3 type=FormatError msg='unsupported checkpoint version 2'"}]
    # the change's own prediction keeps the parent's bytes
    assert report["differing"] == ["stdout/02_predict", "train/a.mqck"]
    assert report["differences"] == {"change": {}, "cross": {}}


def test_differences_per_log_column_and_predicted_file(same_bytes, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    texts = {
        "train/a.csv": ("step,l_pred,l_total\n0,2.0,4.0\n1,1.0,-3.0\n",
                        "step,l_pred,l_total\n0,2.0,4.0\n1,1.5,-3.0\n"),
        "train/b.csv": ("step,l_pred\n0,2.0\n", "step,l_pred\n0,2.0\n1,1.0\n"),
        "infer/a.pred.mqs": ("MQS1 J=1 T=2 fps=25\n1.0 2.0 3.0\n4.0 5.0 6.0\n",
                             "MQS1 J=1 T=2 fps=25\n1.0 2.25 3.0\n4.0 5.0 5.5\n"),
        "train/a.mqck": ("x", "y"),
    }
    for side, i in ((parent, 0), (change, 1)):
        for path, pair in texts.items():
            (side / path).parent.mkdir(parents=True, exist_ok=True)
            (side / path).write_text(pair[i])
    assert same_bytes.differences(parent, change, [*texts, "infer/gone.csv"]) == {
        "train/a.csv": {"max_relative": {"l_pred": 0.5 / 1.5, "l_total": 0.0}},
        "train/b.csv": "columns or rows differ",
        "infer/a.pred.mqs": {"max_abs_mm": 0.5},
    }
