"""The names the benchmark reaches into must exist.

perfbench/tracing.py wraps every (owner, attribute) of its _TARGETS and
reads autodiff's grad flag and its nodes' parents, and perfbench/run.py
records the kernel backend flags, so a renamed or moved name breaks the
benchmark, not just its trace.
"""
import importlib.util
from pathlib import Path

import numpy as np

from mqmotion import _kernels, autodiff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._TARGETS if not callable(getattr(owner, attr, None))]
    assert tracing._TARGETS and missing == []


def test_kernel_backend_flags_exist():
    assert isinstance(_kernels.HAS_NUMBA, bool) and isinstance(_kernels.USE_NUMBA, bool)


def test_graph_attributes_the_tracer_reads_exist():
    assert isinstance(autodiff._grad_enabled, bool)
    x = autodiff.Tensor(np.ones(2), requires_grad=True)
    out = autodiff.mul(x, x)
    assert isinstance(out._parents, tuple) and out._parents[0] is x
