"""Disk cache of homology profiles, one JSON file per configuration and field.

Keys are normalized: the pinch vector is sorted descending and every h is
mapped through the same coordinate permutation, so permuted configurations
share cache entries.  Writes are atomic (write-temp-then-rename).  A save
holds a lock on the directory (POSIX) and merges in the entries that other
writers saved to the same file since it was loaded, so runs sharing a
directory keep each other's work.  Anything unreadable or malformed is
silently discarded and recomputed, and so is a file written by another
homology engine (its `engine` field differs).
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Optional

from .homology import HomologyProfile
from .linalg import FieldSpec
from .semigroup import Multidegree, PinchConfig

try:
    import fcntl
except ImportError:  # not POSIX: saves still merge, but two at once can race
    fcntl = None

SCHEMA_VERSION = "pinched-veronese/1"
# names the code that computed the profiles; change it whenever that code
# changes in a way that could change a stored result.  Skipping certified
# cones changed none: a skipped h is neither read nor written, and an older
# file's entry for it is the same empty profile, never consulted
ENGINE = "bitmask-sparse/1"


def _field_tag(field: FieldSpec) -> str:
    return "qq" if field.is_rationals else f"gf{field.p}"


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
        norm_m, perm = config.normalization()
        self._perm = perm
        m_tag = "-".join(str(c) for c in norm_m)
        self.path = (
            Path(directory)
            / f"profiles-n{config.n}-d{config.d}-m{m_tag}-{_field_tag(field)}.json"
        )
        self._profiles = self._load()
        self._dirty = False

    def _key(self, h: Multidegree) -> str:
        return ",".join(str(h[p]) for p in self._perm)

    def _load(self) -> dict[str, HomologyProfile]:
        """The file's valid entries; none if it is unreadable, untagged or
        written by another schema or engine."""
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if (not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION
                or raw.get("engine") != ENGINE):
            return {}
        profiles = raw.get("profiles")
        if not isinstance(profiles, dict):
            return {}
        out = {}
        for key, pairs in profiles.items():
            try:
                out[key] = HomologyProfile.from_pairs(pairs)
            except (TypeError, ValueError):
                continue  # corrupt entry: recompute rather than trust it
        return out

    def get(self, h: Multidegree) -> Optional[HomologyProfile]:
        return self._profiles.get(self._key(h))

    def put(self, h: Multidegree, profile: HomologyProfile) -> None:
        key = self._key(h)
        if self._profiles.get(key) != profile:
            self._profiles[key] = profile
            self._dirty = True

    def __len__(self) -> int:
        return len(self._profiles)

    def save(self) -> None:
        """Write the profiles atomically, merged with the entries other
        writers saved to the file since it was loaded; this instance's win."""
        if not self._dirty:
            return
        import tempfile
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _locked(self.path.parent):
            self._profiles = {**self._load(), **self._profiles}
            payload = {
                "schema": SCHEMA_VERSION,
                "engine": ENGINE,
                "n": self.config.n,
                "d": self.config.d,
                "m_normalized": list(self.config.normalization()[0]),
                "field": self.field.label,
                "profiles": {k: self._profiles[k].to_pairs() for k in sorted(self._profiles)},
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
