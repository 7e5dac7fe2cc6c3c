"""Checkout paths and environment isolation shared by the bench scripts.

Importing this module does not import ``repro``: the scripts call
:func:`bootstrap` first so that a checkout without ``src/`` fails with a
clean import error instead of picking up an installed copy.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch root for stores, state dirs and span dumps (git-ignored).
SCRATCH = ROOT / ".perfbench"

#: Every variable through which a developer's shell could change what a
#: run does.  They are cleared, and the bench sets the store explicitly.
REPRO_ENV = (
    "REPRO_STORE",
    "REPRO_STORE_SHARDS",
    "REPRO_BACKEND",
    "REPRO_JOBS",
    "REPRO_HOTPATH",
    "REPRO_TRACE_LEN",
    "REPRO_SERVE_TOKEN",
    "REPRO_SERVE_CHAOS",
)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path, and require it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in REPRO_ENV:
        os.environ.pop(name, None)
    # Children (probes, ``repro serve``) import the same sources.
    os.environ["PYTHONPATH"] = str(SRC)


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory under the scratch root, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
