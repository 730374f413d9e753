"""The names the benchmark reaches into must exist.

perfbench/tracing.py wraps every (owner, attribute) of its _TARGETS, and
perfbench/run.py records the kernel backend flags, so a renamed or moved
function breaks the benchmark, not just its trace.
"""
import importlib.util
from pathlib import Path

from mqmotion import _kernels

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
