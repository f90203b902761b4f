"""Whole-file replacement shared by every writer of state and artifact files."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def replacing(path: Path, mode: str = "x") -> Iterator[IO]:
    """Yield a new file beside ``path`` that replaces it on a clean exit.

    Every call writes a temp file of its own, so writers of one path never
    rename each other's half-written file: a reader sees one whole version,
    and the last rename wins. On an error the temp file is removed and
    ``path`` is left as it was. ``mode`` is ``"x"`` or ``"xb"``.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
