"""Shared benchmark configuration.

Every bench regenerates one table or figure of the paper.  Results are
printed and also written to ``benchmarks/output/<name>.txt`` so the
artifacts survive pytest's output capture.

Budgets: set ``REPRO_BENCH_FAST=1`` to cut every training budget (quick
smoke of the harness); the default budgets regenerate the full artifacts
in minutes on a laptop CPU.
"""

import os
import pathlib
import time
from typing import Dict

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
OUTPUT_DIR.mkdir(exist_ok=True)

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

# Epoch budgets per regime.
EPOCHS_FULL = None if not FAST else 30      # None = zoo-tuned budgets
EPOCHS_STUDY = 150 if not FAST else 20      # sweeps / ablations / figures


def bench_meta(scale: float) -> Dict[str, object]:
    """The ``meta`` block every ``BENCH_*.json`` record starts from.

    Numbers are meaningless without knowing what ran them: the commit,
    the dataset scale, the active backend(s), the numpy version, which
    BLAS numpy linked against (OpenBLAS vs reference BLAS can alone
    explain a 3x swing in the matmul-heavy paths) and the CPU count.
    """
    import numpy as np

    from repro import obs
    from repro.tensor import available_backends, get_backend

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get(
            "blas", {}).get("name", "unknown")
    except (TypeError, AttributeError):
        pass  # older numpy without dict-mode show_config
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fast": FAST,
        "git_sha": obs.git_sha(REPO_ROOT) or "unknown",
        "scale": scale,
        "backend_default": get_backend().name,
        "backends_available": list(available_backends()),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
    }


def write_artifact(name: str, text: str) -> pathlib.Path:
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text)
    print(text)
    print(f"[artifact written to {path}]")
    return path


@pytest.fixture
def artifact():
    return write_artifact
