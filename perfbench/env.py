"""The environment recorded with every result.

Cores, Python, numpy, the source revision and the filesystem the journal
directory lives on, plus the CPU-steal share sampled from ``/proc/stat``
over the timed window: on a shared VM a noisy run must be identifiable
from its own output rather than averaged in.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


class StealSampler:
    """Share of CPU time stolen by the hypervisor between start and stop."""

    def __init__(self) -> None:
        self._start = None
        self.share: float | None = None

    def start(self) -> None:
        self._start = _cpu_times()

    def stop(self) -> float | None:
        end = _cpu_times()
        if self._start is None or end is None or len(end) < 8:
            return None
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])  # user..steal; guest time is inside user
        self.share = delta[7] / total if total > 0 else 0.0
        return self.share


def source_revision(root: Path) -> dict[str, str]:
    """The git sha when the checkout is a repository, and always a digest
    of ``src/`` so a result can be matched to its code either way."""
    revision = {"git_sha": "unknown"}
    if (root / ".git").exists():  # never look above a checkout that is no repository
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            done = None
        if done is not None and done.returncode == 0:
            revision["git_sha"] = done.stdout.strip()
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    revision["src_sha1"] = digest.hexdigest()
    return revision


def filesystem_of(path: Path) -> str:
    """The mount type holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def environment(root: Path, journal_dir: Path) -> dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "journal_fs": filesystem_of(journal_dir),
        **source_revision(root),
    }
