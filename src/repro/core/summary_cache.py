"""On-disk per-cluster FSCS summary cache.

Khedker et al.'s lazy pointer analysis motivates not recomputing what a
previous run already established.  Clusters make that easy: a cluster's
analysis outcome is a pure function of its sliced sub-program, its
member/slice sets and the analysis knobs — all of which
:func:`~repro.core.shipping.payload_fingerprint` hashes into the
cluster's content key.  Repeated ``repro analyze`` runs therefore skip every cluster whose
fingerprint is already on disk, and editing a source file invalidates
only the clusters whose sliced sub-programs actually changed.

Directory layout (documented in README "Parallel execution"):

    <cache-dir>/
        <aa>/<fingerprint>.json    # one outcome per cluster content key
        quarantine/<fingerprint>.json  # corrupted entries, moved aside

where ``<aa>`` is the fingerprint's first two hex digits (keeps any
single directory small).  Entries are self-contained JSON outcome dicts
(``{"stats": ..., "points_to": ...}``); there is no index to corrupt,
and writes go through a temp file + ``os.replace`` so concurrent runs
sharing a cache directory never observe torn entries.  Invalidation is
purely key-based: nothing is ever rewritten in place, and
:meth:`SummaryCache.prune` deletes entries untouched for a given number
of days.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Optional


#: Subdirectory corrupted entries are moved to (never read back).
QUARANTINE_DIR = "quarantine"


class SummaryCache:
    """Content-addressed store of per-cluster analysis outcomes."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupted entry aside (never delete user data, never
        re-read it): a truncated write or disk error must read as a
        cache miss, not crash the run — and must not read as a miss
        *again and again* by being retried every lookup."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            pass  # quarantine is best-effort; the miss already happened
        self.corrupt += 1

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached outcome for ``key``, or ``None``; counts the
        hit/miss either way.  A corrupted or truncated entry is a miss:
        the bad file is quarantined (see :meth:`stats`) and the caller
        recomputes."""
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                outcome = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(outcome, dict):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        """Store ``outcome`` under ``key`` atomically and durably: the
        temp file is fsynced *before* the rename, so a crash — even
        SIGKILL or power loss mid-write — leaves either no entry or a
        complete one, never a truncated file for quarantine to catch
        (quarantine stays as defense-in-depth against bit rot)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(outcome, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _walk(self):
        """Entry directories only — the quarantine corner is not part of
        the cache contents."""
        for dirpath, subdirs, files in os.walk(self.root):
            if dirpath == self.root:
                subdirs[:] = [d for d in subdirs if d != QUARANTINE_DIR]
            yield dirpath, subdirs, files

    def __len__(self) -> int:
        n = 0
        for _dir, _subdirs, files in self._walk():
            n += sum(1 for f in files if f.endswith(".json"))
        return n

    def quarantined(self) -> int:
        """How many corrupted entries have been moved aside (all time,
        not just this session)."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            return sum(1 for f in os.listdir(qdir) if f.endswith(".json"))
        except OSError:
            return 0

    def stats(self) -> Dict[str, Any]:
        """Entry count, disk footprint and entry-age range — the
        ``repro cache stats`` peek."""
        now = time.time()
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for dirpath, _subdirs, files in self._walk():
            for name in files:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries += 1
                total_bytes += st.st_size
                age = now - st.st_mtime
                oldest = age if oldest is None else max(oldest, age)
                newest = age if newest is None else min(newest, age)
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "oldest_age_days": (oldest or 0.0) / 86400.0,
            "newest_age_days": (newest or 0.0) / 86400.0,
            "quarantined": self.quarantined(),
            "corrupt_this_session": self.corrupt,
        }

    def prune(self, max_age_days: float) -> int:
        """Delete entries written more than ``max_age_days`` ago; returns
        the number removed.  Entries are immutable, so mtime is write
        time; pruning bounds disk use and never affects correctness."""
        cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        for dirpath, _subdirs, files in self._walk():
            for name in files:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if os.path.getmtime(path) < cutoff:
                        os.unlink(path)
                        removed += 1
                except OSError:
                    continue
        return removed
