"""Atomic file writing shared by every artifact writer, and the message for
a file that cannot be read."""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile


def _umask() -> int:
    """The process umask (reading it means setting it, briefly, to 0)."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _replacing(path, *open_args, **open_kwargs):
    """A temp file beside path, opened as asked: renamed to path on success, removed on error."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, *open_args, **open_kwargs) as fh:
            # mkstemp creates the file owner-only; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    with _replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_failure(path, exc: OSError | UnicodeDecodeError) -> str:
    """Why ``path`` could not be read, for an error line."""
    if isinstance(exc, UnicodeDecodeError):
        return f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    return f"{path}: {exc.strerror or exc}"


def atomic_copy(src, path) -> None:
    """Copy the file src to path via a temp file in path's directory + rename."""
    with open(src, "rb") as source, _replacing(path, "wb") as fh:
        shutil.copyfileobj(source, fh)
