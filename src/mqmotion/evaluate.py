"""Horizon-wise MPJPE evaluation, table/CSV reporting, SVG chart."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .core import DEFAULT_HORIZONS_MS, horizon_to_frame
from .dataio import WindowedDataset
from .errors import DimsMismatch, WindowTooShort

UNLABELED = "unlabeled"


def mpjpe(pred: np.ndarray, truth: np.ndarray, root_index: int = 0) -> float:
    """Mean per-joint position error in mm after per-frame root alignment.

    Both arguments are (T, J, 3) frame stacks of matching shape.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimsMismatch(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim != 3 or pred.shape[-1] != 3:
        raise DimsMismatch(f"expected (T, J, 3) windows, got {pred.shape}")
    if not 0 <= root_index < pred.shape[1]:
        raise DimsMismatch(f"root index {root_index} outside {pred.shape[1]} joints")
    return float(_kernels.mpjpe_mean(pred, truth, root_index))


@dataclass(frozen=True)
class HorizonReport:
    """Per-horizon mean errors, overall and broken down by action label."""

    horizons_ms: tuple[int, ...]
    overall: dict[int, float]
    per_action: dict[str, dict[int, float]]
    n_windows: int
    action_counts: dict[str, int]

    def row(self, action: str | None = None) -> list[float]:
        source = self.overall if action is None else self.per_action[action]
        return [source[ms] for ms in self.horizons_ms]


def evaluate(predictor, dataset: WindowedDataset,
             horizons_ms: tuple[int, ...] = DEFAULT_HORIZONS_MS,
             root_index: int | None = None, batch_size: int = 64,
             max_windows: int | None = None) -> HorizonReport:
    """Run the predictor over every window and average single-frame errors.

    `predictor` maps observed frames (B, n, J, 3) to predictions
    (B, T_f, J, 3). Horizon entries are the error at that frame alone.
    """
    horizons_ms = tuple(int(ms) for ms in horizons_ms)
    frames_1b = {ms: horizon_to_frame(ms, dataset.fps) for ms in horizons_ms}
    deepest = max(frames_1b.values())
    if deepest > dataset.n_future:
        raise WindowTooShort(
            f"horizon {max(horizons_ms)} ms needs frame {deepest} but windows "
            f"hold {dataset.n_future} future frames"
        )
    root = dataset.skeleton.root_index if root_index is None else root_index
    windows = dataset.windows if max_windows is None else dataset.windows[:max_windows]
    if not windows:
        raise WindowTooShort("no windows to evaluate")

    idx = np.array([frames_1b[ms] - 1 for ms in horizons_ms])
    errs = []
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo : lo + batch_size]
        obs = np.stack([w.observed for w in chunk])
        pred = np.asarray(predictor(obs), dtype=np.float64)
        if pred.shape[:2] != (len(chunk), dataset.n_future) or pred.shape[2:] != obs.shape[2:]:
            raise DimsMismatch(
                f"predictor returned {pred.shape}, expected "
                f"({len(chunk)}, {dataset.n_future}, {obs.shape[2]}, 3)"
            )
        fut = np.stack([w.future for w in chunk])
        # C-contiguous (B, H, 1, J, 3) stacks give one single-frame error per
        # window and horizon, summed over joints in the same order as a
        # (1, J, 3) call; fancy indexing would not keep that layout
        errs.append(_kernels.mpjpe_mean(pred.take(idx, axis=1)[:, :, None],
                                        fut.take(idx, axis=1)[:, :, None], root))
    err = np.concatenate(errs)
    labels = np.array([UNLABELED if w.action is None else w.action for w in windows])
    act_counts = {}
    per_action = {}
    for a in sorted(set(labels.tolist())):
        rows = err[labels == a]
        act_counts[a] = len(rows)
        per_action[a] = dict(zip(horizons_ms, rows.mean(axis=0).tolist()))
    overall = dict(zip(horizons_ms, err.mean(axis=0).tolist()))
    return HorizonReport(horizons_ms, overall, per_action, len(windows), act_counts)


def format_table(report: HorizonReport) -> str:
    """Fixed-width table, one row per action plus the average, 0.1 mm."""
    labeled = [a for a in report.per_action if a != UNLABELED or len(report.per_action) > 1]
    name_w = max([len("milliseconds"), len("average")] + [len(a) for a in labeled])
    head = "milliseconds".ljust(name_w) + "".join(
        f"{ms:>8d}" for ms in report.horizons_ms
    )
    lines = [head]
    for action in labeled:
        vals = report.row(action)
        lines.append(action.ljust(name_w) + "".join(f"{v:8.1f}" for v in vals))
    lines.append("average".ljust(name_w) + "".join(f"{v:8.1f}" for v in report.row()))
    return "\n".join(lines) + "\n"


def report_to_csv(report: HorizonReport) -> str:
    """Full-precision CSV: one row per action plus the overall average."""
    header = "action," + ",".join(str(ms) for ms in report.horizons_ms)
    rows = [header]
    for action in sorted(report.per_action):
        rows.append(action + "," + ",".join(repr(v) for v in report.row(action)))
    rows.append("average," + ",".join(repr(v) for v in report.row()))
    return "\n".join(rows) + "\n"


def svg_chart(report: HorizonReport, width: int = 640, height: int = 400) -> str:
    """Self-contained SVG line chart of mean error versus horizon."""
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb
    xs = list(report.horizons_ms)
    ys = report.row()
    ymax = max(max(ys), 1e-12) * 1.1
    xmax = max(xs)

    def px(ms):
        return ml + pw * ms / xmax

    def py(v):
        return mt + ph * (1.0 - v / ymax)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f6fb2"/>')
        parts.append(
            f'<text x="{px(x):.2f}" y="{mt + ph + 18}" font-size="11" '
            f'text-anchor="middle">{x}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = ymax * frac
        parts.append(
            f'<text x="{ml - 6}" y="{py(v):.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">horizon (ms)</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + ph / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.0f})">MPJPE (mm)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(report: HorizonReport, csv_path: str | Path | None = None,
                 svg_path: str | Path | None = None) -> None:
    if csv_path is not None:
        Path(csv_path).write_text(report_to_csv(report))
    if svg_path is not None:
        Path(svg_path).write_text(svg_chart(report))
