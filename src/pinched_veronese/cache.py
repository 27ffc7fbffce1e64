"""Disk cache of Betti columns, one JSON file per configuration and field.

The column of coarse degree s is what a scan adds up there: `scanned`, the
number of elements h that the cone certificate leaves, and for every i (not
cut at any window) the sum over them of dim H~_{i-1} of the divisor complex
of h.  Permuting coordinates changes no column, so columns are keyed by s
and permuted configurations share the file of their sorted pinch vector.
Writes are atomic (write-temp-then-rename).  A save holds a lock on the
directory (POSIX) and merges in the columns that other writers saved to the
file since it was loaded, so runs sharing a directory keep each other's
work.  Anything unreadable or malformed is silently discarded and
recomputed, and so is a file of another engine (its `engine` field differs).
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Optional

from .linalg import FieldSpec
from .semigroup import PinchConfig

try:
    import fcntl
except ImportError:  # not POSIX: saves still merge, but two at once can race
    fcntl = None

SCHEMA_VERSION = "pinched-veronese/1"
# names the code that computed the columns; change it whenever that code
# changes in a way that could change a stored column.  A change to the cone
# certificate does: it changes how many elements each `scanned` counts
ENGINE = "bitmask-sparse-columns/1"

# one coarse degree's (scanned, {i: sum of dim H~_{i-1}}), zero sums left out
Column = tuple[int, dict[int, int]]


def _field_tag(field: FieldSpec) -> str:
    return "qq" if field.is_rationals else f"gf{field.p}"


def _column(raw) -> Column:
    """The column stored as {"scanned": n, "betti": {i: sum}}; an error
    (ValueError, or one of the wrong type or key) if it is malformed."""
    scanned, betti = raw["scanned"], {int(i): v for i, v in raw["betti"].items()}
    if type(scanned) is not int or scanned < 0 or any(
            i < 0 or type(v) is not int or v < 1 for i, v in betti.items()):
        raise ValueError(f"malformed column {raw!r}")
    return scanned, betti


@contextlib.contextmanager
def _locked(directory):
    """Hold an exclusive advisory lock on the directory, so that the saves of
    every process into it run one at a time."""
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


class HomologyCache:
    def __init__(self, directory, config: PinchConfig, field: FieldSpec):
        from pathlib import Path  # as tempfile in save: runs with no cache skip both
        self.config = config
        self.field = field
        m_tag = "-".join(str(c) for c in config.normalization())
        self.path = (
            Path(directory)
            / f"profiles-n{config.n}-d{config.d}-m{m_tag}-{_field_tag(field)}.json"
        )
        self._columns = self._load()
        self._dirty = False

    def _load(self) -> dict[int, Column]:
        """The file's valid columns; none if it is unreadable, untagged or
        written by another schema or engine."""
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if (not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION
                or raw.get("engine") != ENGINE):
            return {}
        columns = raw.get("columns")
        if not isinstance(columns, dict):
            return {}
        out = {}
        for s, column in columns.items():
            try:
                out[int(s)] = _column(column)
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # corrupt entry: recompute rather than trust it
        return out

    def get(self, s: int) -> Optional[Column]:
        return self._columns.get(s)

    def put(self, s: int, column: Column) -> None:
        if self._columns.get(s) != column:
            self._columns[s] = column
            self._dirty = True

    def __len__(self) -> int:
        return len(self._columns)

    def save(self) -> None:
        """Write the columns atomically, merged with the ones other writers
        saved to the file since it was loaded; this instance's win."""
        if not self._dirty:
            return
        import tempfile
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _locked(self.path.parent):
            self._columns = {**self._load(), **self._columns}
            payload = {
                "schema": SCHEMA_VERSION,
                "engine": ENGINE,
                "n": self.config.n,
                "d": self.config.d,
                "m_normalized": list(self.config.normalization()),
                "field": self.field.label,
                # string keys, so that the file sorts them as a reload does
                "columns": {str(s): {"scanned": scanned,
                                     "betti": {str(i): v for i, v in betti.items()}}
                            for s, (scanned, betti) in self._columns.items()},
            }
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:  # one C-encoded string, one write
                    fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        self._dirty = False
