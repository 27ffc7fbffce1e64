"""Disk cache of homology profiles, one JSON file per configuration and field.

Keys are normalized: the pinch vector is sorted descending and every h is
mapped through the same coordinate permutation, so permuted configurations
share cache entries.  Writes are atomic (write-temp-then-rename); anything
unreadable or malformed is silently discarded and recomputed, and so is a
file written by another homology engine (its `engine` field differs).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .homology import HomologyProfile
from .linalg import FieldSpec
from .semigroup import Multidegree, PinchConfig

SCHEMA_VERSION = "pinched-veronese/1"
# names the code that computed the profiles; change it whenever that code
# changes in a way that could change a stored result
ENGINE = "bitmask-sparse/1"


def _field_tag(field: FieldSpec) -> str:
    return "qq" if field.is_rationals else f"gf{field.p}"


class HomologyCache:
    def __init__(self, directory, config: PinchConfig, field: FieldSpec):
        self.config = config
        self.field = field
        norm_m, perm = config.normalization()
        self._perm = perm
        m_tag = "-".join(str(c) for c in norm_m)
        self.path = (
            Path(directory)
            / f"profiles-n{config.n}-d{config.d}-m{m_tag}-{_field_tag(field)}.json"
        )
        self._profiles: dict[str, HomologyProfile] = {}
        self._dirty = False
        self._load()

    def _key(self, h: Multidegree) -> str:
        return ",".join(str(c) for c in h.permuted(self._perm))

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION
                or raw.get("engine") != ENGINE):
            return
        profiles = raw.get("profiles")
        if not isinstance(profiles, dict):
            return
        for key, pairs in profiles.items():
            try:
                profile = HomologyProfile.from_pairs(pairs)
            except (TypeError, ValueError):
                continue  # corrupt entry: recompute rather than trust it
            self._profiles[key] = profile

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
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
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
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False
