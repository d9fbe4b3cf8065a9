"""What a benchmark record says about where and on what it ran."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy

from perfbench.calibration import calibration_s


def source_identity(root):
    """``(git sha or None, digest of the Python files under src/)``.

    The digest identifies the code even where the checkout is not a git
    repository.
    """
    sha = None
    if (Path(root) / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.blake2b(digest_size=16)
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def environment(root):
    sha, digest = source_identity(root)
    return {
        "git_sha": sha,
        "source_digest": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "calibration_s": calibration_s(),
    }
