"""Fresh-interpreter children: environment, launch, output capture, rusage."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: numpy's OpenBLAS otherwise starts worker threads at import, and the child's
#: CPU time then runs well above its wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment, pinned to this checkout's source and one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("OSCMAP_DATA_DIR", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes, bool]:
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), timed_out


def run(argv: list[str], env: dict[str, str], cwd: Path,
        timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run argv to completion; wall time spans launch to reaping."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out, err, timed_out = _drain(proc, time.monotonic() + timeout)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return ChildResult(proc.returncode, out.decode("utf-8", "replace"),
                       err.decode("utf-8", "replace"), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss, timed_out)


def source_root(root: Path) -> Path:
    """The checkout's oscmap package directory; the benchmark runs nothing else."""
    src = root / "src" / "oscmap"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no oscmap package under {src}; run from a checkout root")
    return src


def require_from_checkout(root: Path, module_file: str) -> None:
    origin = Path(module_file).resolve()
    if source_root(root).resolve() not in origin.parents:
        raise BenchError(f"oscmap was imported from {origin}, not from this checkout")


def oscmap_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "oscmap", *args]
