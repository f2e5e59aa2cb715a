"""Export the tree of a git revision, for tools that run a base revision beside the working tree."""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> None:
    """Write the tree of a revision into a directory with git archive."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
