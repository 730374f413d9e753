"""Quotient-space motion prediction: encoding, model, training, evaluation."""

from .core import (
    DEFAULT_HORIZONS_MS,
    HorizonSpec,
    MotionSequence,
    Skeleton,
    downsample,
    horizon_to_frame,
    root_align,
)
from .quotient import (
    QuotientRepresentation,
    TangentField,
    component_magnitudes,
    encode_quotient,
    grassmann_project,
    integrate_velocities,
    orthogonal_cosine,
    tangent_velocities,
)
from .dataio import (
    WindowedDataset,
    WindowSample,
    make_windows,
    parse_mqs,
    read_mqs_file,
    synth_generate,
    write_mqq,
    write_mqs,
    write_mqs_file,
)
from .perturb import apply_mask, apply_noise, build_batch
from .network import ModelDims, ModelParams
from .losses import LossReport
from .train import TrainConfig, Trainer, load_checkpoint, make_predictor
from .evaluate import HorizonReport, format_table, mpjpe
# train.train and evaluate.evaluate are reached through their modules;
# re-exporting them here would shadow the submodule names.
from . import errors, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_HORIZONS_MS",
    "HorizonSpec",
    "MotionSequence",
    "Skeleton",
    "downsample",
    "horizon_to_frame",
    "root_align",
    "QuotientRepresentation",
    "TangentField",
    "component_magnitudes",
    "encode_quotient",
    "grassmann_project",
    "integrate_velocities",
    "orthogonal_cosine",
    "tangent_velocities",
    "WindowedDataset",
    "WindowSample",
    "make_windows",
    "parse_mqs",
    "read_mqs_file",
    "synth_generate",
    "write_mqq",
    "write_mqs",
    "write_mqs_file",
    "apply_mask",
    "apply_noise",
    "build_batch",
    "ModelDims",
    "ModelParams",
    "LossReport",
    "TrainConfig",
    "Trainer",
    "load_checkpoint",
    "make_predictor",
    "train",
    "HorizonReport",
    "evaluate",
    "format_table",
    "mpjpe",
    "errors",
]
