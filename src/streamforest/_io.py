"""Atomic file writes for snapshots, results, CSVs and reports; no model code."""

import contextlib
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def _write_atomically(path):
    """A binary file to write in place of `path`: a temporary file in the
    same directory, renamed over `path` once the block ends. If the block
    raises, the temporary file is removed and `path` keeps its old contents.
    If the temporary file cannot be made, say in a missing directory, or
    cannot be renamed, say over a directory, the OSError names `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")

    def named(err: OSError) -> OSError:  # the file asked for, not the temporary one
        return type(err)(err.errno, err.strerror, str(path))

    try:
        fh = open(tmp, "xb")
    except OSError as err:
        raise named(err) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise named(err) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
