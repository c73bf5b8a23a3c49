"""Where the benchmark loads the package from, and what it records about the host.

The package is always imported from the checkout's ``src/`` (as the test
suite does with ``PYTHONPATH=src``), never from an installed copy, so the
code that is timed is the code in the tree.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "hankellift"
MODULES = (
    "blaschke",
    "fourier",
    "operators",
    "model_space",
    "intertwine",
    "subspaces",
    "cli",
    "errors",
)

# One BLAS thread: on a small shared host, extra threads add run-to-run
# noise, and the largest dense problems here (400^2 Kronecker systems,
# the 513^2 Hilbert section) gain little from them.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _probe_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python loop (about 10 ms each)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def pin_quietest_cpu():
    """Bind this process to the allowed CPU that runs a fixed loop fastest.

    On a small shared host the speed of each CPU drifts by +-25 % within
    seconds, and the two CPUs of a 2-core host drift apart (one ran ~40 %
    slower than the other for a minute); the load comes from outside this
    process.  Returns the chosen CPU and the probe time of each CPU in ms.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probes = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = _probe_seconds() * 1e3
    chosen = min(probes, key=probes.get)
    os.sched_setaffinity(0, {chosen})
    return chosen, probes


class CheckoutError(RuntimeError):
    """The package source is missing from the checkout or loads from elsewhere."""


def pin_blas_threads() -> None:
    """Fix the BLAS thread count of this process; only effective before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already imported; the BLAS thread count is fixed")
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)


def import_package(fresh: bool = False) -> SimpleNamespace:
    """Import hankellift from the checkout and return its modules by short name.

    ``fresh`` drops every loaded hankellift module first, so the import is
    paid again (numpy stays loaded).
    """
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {PACKAGE_DIR}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "hankellift" or m.startswith("hankellift.")]:
            del sys.modules[name]
    package = importlib.import_module("hankellift")
    origin = Path(package.__file__).resolve()
    if PACKAGE_DIR.resolve() not in origin.parents:
        raise CheckoutError(f"hankellift loaded from {origin}, not from {PACKAGE_DIR}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"hankellift.{name}") for name in MODULES}
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_record(seed: int, nproc: int, cpu: int, cpu_probe_ms: dict) -> dict:
    """Machine and software facts that let a noisy or foreign run be recognised."""
    import numpy as np

    return {
        "nproc": nproc,
        "cpu": cpu,
        "cpu_probe_ms": cpu_probe_ms,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }
