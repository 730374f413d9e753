"""MPJPE fixtures, horizon bookkeeping against a brute-force oracle, and
the three report renderers."""
import os
from collections import Counter
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import mqmotion.evaluate as ev
from mqmotion.core import MotionSequence, Skeleton
from mqmotion.dataio import make_windows, synth_generate
from mqmotion.errors import DimsMismatch, HorizonMisaligned, NumericalInstability, WindowTooShort


def labeled_sequence(action, seed, frames=12, joints=2):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((frames, joints, 3)) * 10.0
    return MotionSequence(arr, fps=25.0, skeleton=Skeleton(joints),
                          action=action)


def small_dataset(actions=("walk", "sit")):
    seqs = [labeled_sequence(a, seed=i) for i, a in enumerate(actions)]
    return make_windows(seqs, n_observed=3, n_future=4, stride=3)


def oracle_predictor(dataset):
    """Look the true future up by observed window; exact by construction."""
    table = {w.observed.tobytes(): w.future for w in dataset.windows}

    def predict(obs):
        return np.stack([table[obs[i].tobytes()] for i in range(len(obs))])

    return predict


class TestMpjpe:
    def test_identical_frames_score_zero(self):
        frames = np.random.default_rng(0).standard_normal((4, 3, 3))
        assert ev.mpjpe(frames, frames) == 0.0

    def test_hand_value(self):
        truth = np.zeros((1, 2, 3))
        pred = np.zeros((1, 2, 3))
        pred[0, 1] = (5.0, 0.0, 0.0)
        assert ev.mpjpe(pred, truth) == 2.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((5, 4, 3)) * 20.0
        truth = rng.standard_normal((5, 4, 3)) * 20.0
        a = pred - pred[:, 1:2]
        b = truth - truth[:, 1:2]
        want = float(np.linalg.norm(a - b, axis=-1).mean())
        assert abs(ev.mpjpe(pred, truth, root_index=1) - want) < 1e-9

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((3, 4, 3))
        truth = rng.standard_normal((3, 4, 3))
        base = ev.mpjpe(pred, truth)
        shifted = ev.mpjpe(pred + np.array([100.0, -40.0, 7.0]), truth)
        assert abs(shifted - base) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal((3, 2, 3))
        assert ev.mpjpe(a, b) == ev.mpjpe(b, a)

    @pytest.mark.parametrize("pred,truth,root", [
        (np.zeros((2, 2, 3)), np.zeros((3, 2, 3)), 0),
        (np.zeros((2, 2, 4)), np.zeros((2, 2, 4)), 0),
        (np.zeros((2, 2)), np.zeros((2, 2)), 0),
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), 2),
    ])
    def test_rejects_bad_inputs(self, pred, truth, root):
        with pytest.raises(DimsMismatch):
            ev.mpjpe(pred, truth, root)


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        ds = small_dataset()
        report = ev.evaluate(oracle_predictor(ds), ds, horizons_ms=(80, 160))
        assert report.horizons_ms == (80, 160)
        assert report.n_windows == len(ds)
        assert all(v == 0.0 for v in report.overall.values())
        assert all(v == 0.0 for row in report.per_action.values()
                   for v in row.values())

    @pytest.mark.parametrize("horizons", [(), (160, 80), (80, 80, 160)],
                             ids=["empty", "unsorted", "repeated"])
    def test_horizons_are_a_horizon_spec(self, horizons):
        ds = small_dataset()
        with pytest.raises(HorizonMisaligned):
            ev.evaluate(oracle_predictor(ds), ds, horizons_ms=horizons)

    def test_constant_predictor_on_constant_data(self):
        seq = synth_generate("constant", joints=3, frames=12, fps=25.0, seed=0)
        ds = make_windows([seq], n_observed=3, n_future=4)

        def predict(obs):
            reps = np.repeat(obs[:, -1:], 4, axis=1)
            return reps

        report = ev.evaluate(predict, ds, horizons_ms=(80, 160))
        assert all(v == 0.0 for v in report.overall.values())

    def test_horizon_entry_reads_single_frame(self):
        ds = small_dataset(actions=("walk",))
        base = oracle_predictor(ds)

        def predict(obs):
            out = base(obs).copy()
            out[:, 1, 1] += (3.0, 4.0, 0.0)  # frame 2 of 4, non-root joint
            return out

        report = ev.evaluate(predict, ds, horizons_ms=(80, 160))
        assert abs(report.overall[80] - 2.5) < 1e-12
        assert report.overall[160] == 0.0

    def test_matches_brute_force_average(self):
        ds = small_dataset()

        def predict(obs):
            return np.repeat(obs[:, -1:], 4, axis=1)

        report = ev.evaluate(predict, ds, horizons_ms=(80, 160))
        for ms, k in ((80, 2), (160, 4)):
            errs = [ev.mpjpe(np.repeat(w.observed[-1:], 4, axis=0)[k - 1:k],
                             w.future[k - 1:k])
                    for w in ds.windows]
            assert abs(report.overall[ms] - np.mean(errs)) < 1e-12

    def test_per_action_breakdown(self):
        ds = small_dataset(actions=("walk", "sit"))
        report = ev.evaluate(oracle_predictor(ds), ds, horizons_ms=(80,))
        assert sorted(report.per_action) == ["sit", "walk"]

    def test_overall_is_count_weighted_action_mean(self):
        ds = small_dataset(actions=("walk", "walk", "sit"))

        def predict(obs):
            return np.repeat(obs[:, -1:], 4, axis=1)

        report = ev.evaluate(predict, ds, horizons_ms=(80,))
        counts = Counter(w.action for w in ds.windows)
        assert counts == {"walk": 4, "sit": 2}
        mixed = sum(report.per_action[a][80] * counts[a]
                    for a in report.per_action) / report.n_windows
        assert abs(report.overall[80] - mixed) < 1e-12

    def test_unlabeled_sequences_grouped(self):
        ds = small_dataset(actions=(None,))
        report = ev.evaluate(oracle_predictor(ds), ds, horizons_ms=(80,))
        assert list(report.per_action) == [ev.UNLABELED]

    def test_deep_horizon_rejected(self):
        ds = small_dataset()
        with pytest.raises(WindowTooShort):
            ev.evaluate(oracle_predictor(ds), ds, horizons_ms=(80, 320))

    def test_no_windows_rejected(self):
        with pytest.warns(UserWarning, match="skipped"):
            ds = make_windows([labeled_sequence("walk", seed=0, frames=6)],
                              n_observed=3, n_future=4)
        assert len(ds) == 0
        with pytest.raises(WindowTooShort):
            ev.evaluate(oracle_predictor(ds), ds, horizons_ms=(80,))

    def test_batch_size_does_not_change_result(self, monkeypatch):
        ds = small_dataset()

        def predict(obs):
            return np.repeat(obs[:, -1:], 4, axis=1)

        a = ev.evaluate(predict, ds, horizons_ms=(80, 160))
        monkeypatch.setattr(ev, "_CHUNK_WINDOWS", 1)
        b = ev.evaluate(predict, ds, horizons_ms=(80, 160))
        assert a.overall == b.overall

    def test_wrong_predictor_shape_rejected(self):
        ds = small_dataset()

        def predict(obs):
            return np.zeros((len(obs), 2, 2, 3))

        with pytest.raises(DimsMismatch):
            ev.evaluate(predict, ds, horizons_ms=(80,))

    def test_non_finite_prediction_rejected(self):
        ds = small_dataset()

        def predict(obs):
            out = oracle_predictor(ds)(obs)
            out[0, 0, 0, 0] = np.nan
            return out

        with pytest.raises(NumericalInstability):
            ev.evaluate(predict, ds, horizons_ms=(80,))

    def test_default_horizons_fit_standard_windows(self):
        seq = labeled_sequence("walk", seed=5, frames=40)
        ds = make_windows([seq], n_observed=10, n_future=25)
        report = ev.evaluate(oracle_predictor(ds), ds)
        assert report.horizons_ms == (80, 160, 320, 400, 560, 1000)
        assert all(v == 0.0 for v in report.overall.values())


def sample_report():
    return ev.HorizonReport(
        horizons_ms=(80, 160),
        overall={80: 1.25, 160: 3.14159},
        per_action={"sit": {80: 2.0, 160: 4.0}, "walk": {80: 0.5, 160: 2.5}},
        n_windows=4,
    )


class TestRendering:
    def test_row_ordering(self):
        r = sample_report()
        assert r.row() == [1.25, 3.14159]
        assert r.row("sit") == [2.0, 4.0]

    def test_table_layout(self):
        text = ev.format_table(sample_report())
        lines = text.splitlines()
        assert lines[0].startswith("milliseconds")
        assert lines[0].split() == ["milliseconds", "80", "160"]
        assert lines[-1].split() == ["average", "1.2", "3.1"]
        assert any(line.split() == ["walk", "0.5", "2.5"] for line in lines)

    def test_table_hides_sole_unlabeled_row(self):
        r = ev.HorizonReport((80,), {80: 1.0}, {ev.UNLABELED: {80: 1.0}}, 2)
        lines = ev.format_table(r).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("average")

    def test_csv_full_precision(self):
        text = ev.report_to_csv(sample_report())
        lines = text.splitlines()
        assert lines[0] == "action,80,160"
        assert lines[1].split(",")[0] == "sit"
        last = lines[-1].split(",")
        assert last[0] == "average"
        assert float(last[2]) == 3.14159

    def test_svg_is_well_formed(self):
        text = ev.svg_chart(sample_report())
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        points = root.find("s:polyline", ns).get("points").split()
        assert len(points) == 2
        assert len(root.findall("s:circle", ns)) == 2
        labels = [t.text for t in root.findall("s:text", ns)]
        assert "horizon (ms)" in labels and "MPJPE (mm)" in labels

    def test_write_report_emits_both_files(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        svg_path = tmp_path / "r.svg"
        ev.write_report(sample_report(), csv_path, svg_path)
        assert csv_path.read_text().startswith("action,")
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    def test_interrupted_write_keeps_the_old_files(self, tmp_path, monkeypatch, fail):
        csv_path = tmp_path / "r.csv"
        svg_path = tmp_path / "r.svg"
        ev.write_report(sample_report(), csv_path, svg_path)
        old = csv_path.read_bytes(), svg_path.read_bytes()
        other = ev.HorizonReport((80,), {80: 9.5}, {"walk": {80: 9.5}}, 1)

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, fail, interrupt)
        with pytest.raises(KeyboardInterrupt):
            ev.write_report(other, csv_path, svg_path)
        monkeypatch.undo()
        assert (csv_path.read_bytes(), svg_path.read_bytes()) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.svg"]
        ev.write_report(other, csv_path, svg_path)
        assert csv_path.read_text() == ev.report_to_csv(other)
        assert svg_path.read_text() == ev.svg_chart(other)
