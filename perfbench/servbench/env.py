"""Run hygiene: refuse settings that would fake a number, and fingerprint.

Also the memory probes: resident set size of this process plus any
shard workers it forked.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

def refusal() -> str | None:
    """Why the benchmark must not run in this environment, or None.

    * A spectra/result cache (``REPRO_CACHE`` / ``REPRO_CACHE_DIR``)
      would let a warm rerun skip synthesis and fake ``setup_s``.
    * ``REPRO_PROFILE`` would profile the untraced end-to-end runs.
    * The benchmark measures the default configuration only: numpy
      backend, fused ticks, pipe transport.
    """
    from repro.exec import default_cache
    from repro.exec.transport import resolve_transport
    from repro.kernels import backend_name
    from repro.kernels.profile import profiling_enabled
    from repro.kernels.tick import fused_enabled

    if default_cache() is not None:
        return "REPRO_CACHE is enabled; a warm cache would fake setup_s"
    if profiling_enabled():
        return "REPRO_PROFILE is on; it belongs to the traced run only"
    if backend_name() != "numpy":
        return f"backend is {backend_name()!r}; the benchmark measures numpy"
    if not fused_enabled():
        return "REPRO_FUSED is off; the benchmark measures fused ticks"
    if resolve_transport() != "pipe":
        return "REPRO_TRANSPORT is not pipe; the benchmark measures pipe"
    return None


def _commit(root: Path) -> str:
    """The checkout's git commit, or "unknown" outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: Path, workload: str, seed: int, workers: int,
                one_cpu: bool) -> dict:
    """Everything a reader needs to tell two runs' settings apart."""
    import numpy as np

    from repro.exec.transport import resolve_transport
    from repro.kernels import backend_name
    from repro.kernels.tick import fused_enabled

    return {
        "commit": _commit(root),
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend_name(),
        "fused": fused_enabled(),
        "transport": resolve_transport() if workers else "local",
        "workers": workers,
        "one_cpu": one_cpu,
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _children() -> list[int]:
    """PIDs of this process's direct children (shard workers)."""
    pids: list[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def _status_kb(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb() -> float:
    """Current resident memory of this process plus its children, MB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    kb = sum(_status_kb(pid, "VmRSS") for pid in _children())
    return (pages * _PAGE + kb * 1024) / 1e6


def rss_peak_mb() -> float:
    """Peak resident memory of this process plus its live children, MB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb = sum(_status_kb(pid, "VmHWM") for pid in _children())
    return (own_kb + kb) * 1024 / 1e6
