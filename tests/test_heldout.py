"""tools/heldout.py: the trivial predictors it reports beside the trained
model, which need no training."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "heldout.py"
spec = importlib.util.spec_from_file_location("heldout", TOOL)
heldout = importlib.util.module_from_spec(spec)
spec.loader.exec_module(heldout)

# MPJPE in mm at 80, 160, 320, 400, 560 and 1000 ms on the held-out sets
BASELINE_MM = {
    "zero_velocity": {"sinusoid": [4.8, 8.8, 12.7, 12.3, 12.4, 15.6],
                      "random_walk": [23.8, 36.3, 50.1, 56.5, 65.9, 86.0]},
    "constant_velocity": {"sinusoid": [2.8, 8.6, 23.2, 28.9, 36.3, 63.3],
                          "random_walk": [43.0, 79.4, 147.4, 182.8, 251.2, 438.4]},
}


def test_baselines_on_the_heldout_sets():
    got = heldout.baseline_mpjpe()
    assert list(got) == list(BASELINE_MM)
    for name, by_set in BASELINE_MM.items():
        assert list(got[name]) == list(by_set)
        for kind, mm in by_set.items():
            assert list(got[name][kind]) == [80, 160, 320, 400, 560, 1000]
            assert list(got[name][kind].values()) == pytest.approx(mm, abs=0.05), (name, kind)


def test_baselines_from_the_last_two_frames():
    obs = np.zeros((1, 3, 2, 3))
    obs[0, 1, :, 0], obs[0, 2, :, 0] = 10.0, 12.0  # the last step is +2 mm in x
    zero, const = heldout.zero_velocity(obs, 4), heldout.constant_velocity(obs, 4)
    assert zero.shape == const.shape == (1, 4, 2, 3)
    assert (zero[..., 0] == 12.0).all()
    assert const[0, :, 0, 0].tolist() == [14.0, 16.0, 18.0, 20.0]
    assert (zero[..., 1:] == 0.0).all() and (const[..., 1:] == 0.0).all()
