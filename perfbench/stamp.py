"""Where and on what a result was measured.

Every run prints this stamp next to its numbers: host and core count, the
BLAS vendor and the thread count the benchmark fixed before numpy was
imported, the Python and numpy versions, the git revision (``null`` when
the checkout is not a git repository, as in an exported tree) plus a
digest of ``src`` that identifies the code either way, and the ``src``
line count the ROADMAP tracks next to the timings.
"""

from __future__ import annotations

import hashlib
import os
import platform
import socket
import subprocess
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        return {"name": None, "version": None}


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_lines_and_digest(src: Path) -> tuple[int, str]:
    digest = hashlib.sha1()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode())
        digest.update(data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:12]


def stamp(root: Path, blas_threads: str) -> dict:
    import numpy as np

    lines, digest = _src_lines_and_digest(root / "src")
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "blas": {**_blas(), "threads": int(blas_threads)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(root),
        "src_digest": digest,
        "src_lines": lines,
    }
