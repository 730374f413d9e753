"""tools/bench_pairs.py: the per-kind samples lines it keeps from run.py, the
gain rule its summary applies, the A/A twin arm, and how it records each
checkout."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# stdout of `perfbench/run.py --workload infer_h36m --seed 1 --seconds 3
# --scale tiny`, cut after the first metric lines
RUN_STDOUT = """\
env {"numpy": "2.4.6"}
samples cli          n=   4 wall median   244.053 ms  reference median   395.323 ms
samples cycle        n=   3 wall median   306.938 ms  reference median   430.906 ms
samples eval         n=  13 wall median    84.453 ms  reference median   111.614 ms
samples predict      n= 260 wall median     1.799 ms  reference median     2.612 ms
samples save         n=   3 wall median     3.789 ms  reference median     5.320 ms
samples step         n=   4 wall median   151.630 ms  reference median   212.871 ms
samples step_warmup  n=   2 wall median   165.328 ms  reference median   240.389 ms
samples trainer_init n=   3 wall median     3.564 ms  reference median     5.401 ms
error_rate=0.0 failed=0 attempted=285
setup_s                              0.69038 s
eval_windows_per_s                   573.404 windows/s
"""


def test_parse_samples_reads_every_kind():
    got = bench_pairs.parse_samples(RUN_STDOUT)
    assert sorted(got) == ["cli", "cycle", "eval", "predict", "save", "step",
                           "step_warmup", "trainer_init"]
    assert got["eval"] == {"n": 13, "wall_ms": 84.453, "reference_ms": 111.614}
    assert got["predict"] == {"n": 260, "wall_ms": 1.799, "reference_ms": 2.612}


def test_parse_samples_ignores_other_lines():
    assert bench_pairs.parse_samples("setup_s 0.69 s\nsamples of nothing\n") == {}


def test_summarize_samples_per_side():
    def run(wall, ref):
        return {"samples": {"eval": {"n": 13, "wall_ms": wall, "reference_ms": ref}}}

    runs = {"parent": [run(94.0, 120.0), run(96.0, 122.0)],
            "change": [run(87.0, 101.0), run(89.0, 103.0), {"error": ["no output"]}]}
    got = bench_pairs.summarize_samples(runs)
    assert list(got) == ["eval"]
    assert got["eval"]["parent"]["wall_ms"]["median"] == pytest.approx(95.0)
    assert got["eval"]["change"]["reference_ms"]["median"] == pytest.approx(102.0)
    assert got["eval"]["change"]["wall_ms"]["n"] == 2


def _pairs(parent, change):
    def runs(values):
        return [{"metrics": {"predict_ms_p50": {"value": v}}} for v in values]

    got = bench_pairs.summarize({"parent": runs(parent), "change": runs(change)},
                                {"predict_ms_p50": "lower"})
    return got["predict_ms_p50"]


PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]  # IQR 0.09


def test_gate_needs_the_medians_apart_by_more_than_the_parent_iqr():
    # 10 of 10 pairs won, but the medians differ by 0.03 < 0.09
    entry = _pairs(PARENT, [v - 0.03 for v in PARENT])
    assert entry["change_won"] == 10 and entry["parent"]["iqr"] == pytest.approx(0.09)
    assert entry["gate_met"] is False


def test_gate_met_at_nine_of_ten_outside_the_iqr():
    # one tie: nine pairs won, and the medians differ by 0.2
    change = [v - 0.2 for v in PARENT[:9]] + [PARENT[9]]
    entry = _pairs(PARENT, change)
    assert entry["change_won"] == 9 and entry["gate_met"] is True


def test_gate_not_met_at_eight_of_ten():
    change = [v - 0.2 for v in PARENT[:8]] + [PARENT[8] + 0.01, PARENT[9]]
    entry = _pairs(PARENT, change)
    assert entry["change_won"] == 8 and entry["gate_met"] is False


def _with_twin(parent, change, twin):
    def runs(values):
        return [{"metrics": {"predict_ms_p50": {"value": v}}} for v in values]

    got = bench_pairs.summarize({"parent": runs(parent), "change": runs(change),
                                 "twin": runs(twin)}, {"predict_ms_p50": "lower"})
    return got["predict_ms_p50"]


def test_twin_quartiles_and_move_are_recorded():
    twin = [v + 0.05 for v in PARENT]
    entry = _with_twin(PARENT, [v - 0.2 for v in PARENT], twin)
    assert entry["twin"]["median"] == pytest.approx(1.14)
    assert entry["twin"]["iqr"] == pytest.approx(0.09) and entry["twin"]["n"] == 10
    assert entry["twin_move"] == pytest.approx(0.05)
    assert entry["gate_met"] is True


@pytest.mark.parametrize("shift", [0.25, -0.25])
def test_gate_needs_the_change_to_beat_the_twins_move(shift):
    # 10 of 10 pairs and 0.2 beyond the parent's IQR of 0.09, but the twin,
    # the parent's own code, moved 0.25 either way
    entry = _with_twin(PARENT, [v - 0.2 for v in PARENT], [v + shift for v in PARENT])
    assert entry["change_won"] == 10 and entry["twin_move"] == pytest.approx(0.25)
    assert entry["gate_met"] is False


def test_without_a_twin_the_pair_rule_alone_applies():
    entry = _pairs(PARENT, [v - 0.2 for v in PARENT])
    assert "twin" not in entry and "twin_move" not in entry
    assert entry["gate_met"] is True


def test_samples_summary_has_the_twin():
    run = {"samples": {"eval": {"n": 13, "wall_ms": 90.0, "reference_ms": 110.0}}}
    got = bench_pairs.summarize_samples({"parent": [run], "change": [run], "twin": [run]})
    assert sorted(got["eval"]) == ["change", "parent", "twin"]


def test_each_side_goes_first_in_turn():
    three = ("parent", "change", "twin")
    orders = [bench_pairs.pair_order(three, i) for i in range(6)]
    assert [o[0] for o in orders] == ["parent", "change", "twin"] * 2
    assert all(sorted(o) == sorted(three) for o in orders)
    two = ("parent", "change")
    assert [bench_pairs.pair_order(two, i) for i in range(2)] == [two, two[::-1]]


def test_twin_sits_beside_the_parent_under_a_name_of_its_length(tmp_path):
    parent = tmp_path / "parent"
    bench_pairs.check_twin(parent, tmp_path / "twin_p")
    for bad in (tmp_path / "twin", tmp_path / "sub" / "twin_p", parent):
        with pytest.raises(SystemExit):
            bench_pairs.check_twin(parent, bad)


def _traced_run(value):
    return {"metrics": {"network.heads_ms": {"value": value, "unit": "ms"}}}


def test_traced_summary_gives_each_sides_median_and_quartiles():
    runs = {"parent": [_traced_run(v) for v in (0.30, 0.10, 0.20)],
            "change": [_traced_run(v) for v in (0.08, 0.12)] + [{"error": ["no output"]}]}
    got = bench_pairs.summarize_traced(runs, ["network.heads_ms", "train.adam_ms"])
    heads = got["network.heads_ms"]
    assert heads["parent"]["median"] == pytest.approx(0.20) and heads["parent"]["n"] == 3
    assert heads["parent"]["q1"] == pytest.approx(0.15)
    assert heads["parent"]["q3"] == pytest.approx(0.25)
    assert heads["change"]["median"] == pytest.approx(0.10) and heads["change"]["n"] == 2
    assert heads["change_over_parent"] == pytest.approx(0.5)
    # a metric no run reports has no median
    assert got["train.adam_ms"]["parent"]["n"] == 0
    assert got["train.adam_ms"]["change_over_parent"] is None


def test_three_traced_seeds_each_side_first_in_turn():
    calls, saves = [], []

    def run(side, seed):
        calls.append((side, seed))
        return _traced_run(float(seed))

    traced = {"seeds": list(bench_pairs.TRACED_SEEDS), "runs": {"parent": [], "change": []}}
    bench_pairs.collect_traced(traced, run, ["network.heads_ms"], lambda: saves.append(1))
    assert bench_pairs.TRACED_SEEDS == (5, 6, 7)
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7)]
    assert len(saves) == 6
    assert [r["seed"] for r in traced["runs"]["change"]] == [5, 6, 7]
    assert traced["summary"]["network.heads_ms"]["change"]["median"] == pytest.approx(6.0)


def test_append_skips_the_traced_runs_already_held():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return _traced_run(1.0)

    held = dict(_traced_run(2.0), seed=5)
    traced = {"seeds": [5, 6, 7], "runs": {"parent": [held], "change": []}}
    bench_pairs.collect_traced(traced, run, ["network.heads_ms"], lambda: None)
    assert calls == [("change", 5), ("change", 6), ("parent", 6), ("parent", 7),
                     ("change", 7)]
    assert traced["runs"]["parent"][0] is held
    bench_pairs.collect_traced(traced, run, ["network.heads_ms"], lambda: None)
    assert len(calls) == 5  # all six held: nothing runs again


def test_describe_checkouts_records_uncommitted_files_and_source_lines(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    src = tmp_path / "src" / "mqmotion"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "README.md").write_text("not source\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    [clean] = bench_pairs.describe_checkouts({"parent": tmp_path}).values()
    assert len(clean["commit"]) == 40 and clean["path"] == str(tmp_path)
    assert clean["uncommitted"] == [] and clean["source_lines"] == 2

    (src / "a.py").write_text("x = 1\n")
    (src / "b.py").write_text("z = 3\nw = 4\nv = 5\n")
    [edited] = bench_pairs.describe_checkouts({"change": tmp_path}).values()
    assert edited["commit"] == clean["commit"]
    assert edited["uncommitted"] == [" M src/mqmotion/a.py", "?? src/mqmotion/b.py"]
    assert edited["source_lines"] == 4
