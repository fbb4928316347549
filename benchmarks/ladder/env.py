"""The environment header stamped on every result file and report."""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import repro.backends as backends
from benchmarks.ladder.harness import ROOT, THREAD_ENV


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # no git, or (the driver's checkout) not a repository
    return done.stdout.strip()


def header(seed: int) -> dict:
    # Only this tree's own repository counts: a bare checkout unpacked
    # inside some other repository has no commit of its own.
    top = _git("rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == ROOT
    commit = _git("rev-parse", "HEAD") if own else None
    dirty = _git("status", "--porcelain") if commit else None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "backend_active": backends.active_name(),
        "backends_available": list(backends.available_backends()),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_commit": commit or "unknown",
        "git_dirty": bool(dirty) if dirty is not None else None,
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def render(env: dict) -> str:
    dirty = {True: " (dirty)", False: "", None: ""}[env["git_dirty"]]
    pins = " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
    return "\n".join([
        f"cpu      {env['cpu_model']} x{env['nproc']}",
        f"python   {env['python']}  numpy {env['numpy']}  numba {env['numba']}",
        f"backend  {env['backend_active']} "
        f"(available: {', '.join(env['backends_available'])})",
        f"threads  {pins}",
        f"commit   {env['git_commit']}{dirty}  seed {env['seed']}  {env['utc']}",
    ])
