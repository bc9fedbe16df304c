"""Where the program lives and how the benchmark process is pinned.

Both entry scripts (``run.py`` and ``cycles.py``) call :func:`prepare`
before anything imports numpy: it pins the BLAS pool to one thread, so
all load comes from one process on one thread, and puts the checkout's
``src/`` first on ``sys.path``, so the program measured is always the
one in this checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Optional

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, catalogs, spans and result files.
WORK = os.path.join(ROOT, ".perfbench")

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def prepare() -> None:
    """Pin BLAS threads and make ``import repro`` load this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program to measure: {SRC}/repro is missing")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def _git_commit() -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _source_sha256() -> str:
    """Digest of every ``.py`` file under ``src/repro`` (path + bytes), so
    a result names the code it measured even where there is no git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def fingerprint() -> dict:
    """What a result needs to be compared with another one."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }
