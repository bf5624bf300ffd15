"""Store catalog: named :class:`ChunkedTraceStore` directories under one root.

The service daemon (:mod:`repro.service`) and the federation layer
(:mod:`repro.engine.federation`, :mod:`repro.core.federation`) both work over
*named* stores; a catalog is simply a directory whose immediate
subdirectories each contain a store ``manifest.json``::

    catalog/
      fb2010/manifest.json + chunks...
      cc-b/manifest.json + chunks...
      .service/            <- ignored (no manifest): daemon scratch state

Entries are discovered lazily and re-discovered on :meth:`refresh`, so stores
dropped into (or deleted from) the catalog directory while the daemon runs are
picked up without a restart.  :meth:`CatalogEntry.open` returns a fresh
:class:`ChunkedTraceStore` handle whenever the manifest changed on disk
(detected via mtime + size), and the *previous* handle keeps working —
appends never rewrite committed chunk files, and an append only ever
*extends* the dictionary sidecar (codes already on disk keep their meaning),
so an in-flight scan on an old handle completes against the manifest it
opened with while new requests see the grown store.

Cluster / epoch metadata
------------------------
The paper's seven-cluster comparison (§7) and its FB-2009 → FB-2010 evolution
study (§4.1) need each member tagged with *which cluster* it came from and
*which time epoch* it covers.  A member named ``<cluster>@<epoch>`` carries
both implicitly (``fb@2009``, ``fb@2010``); a bare name is its own cluster
with no epoch.  An optional ``catalog.json`` next to the members overrides
either field per member::

    {"members": {"fb2010": {"cluster": "fb", "epoch": "2010"}}}

Epochs order lexicographically within a cluster (zero-pad numeric epochs),
which is what :meth:`StoreCatalog.epochs` returns and what the federation
drift report walks pair-by-pair.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..errors import TraceFormatError
from .store import MANIFEST_NAME, ChunkedTraceStore

__all__ = ["CATALOG_METADATA_NAME", "CatalogEntry", "StoreCatalog"]

#: Optional per-catalog metadata sidecar (cluster/epoch overrides).
CATALOG_METADATA_NAME = "catalog.json"


def _split_member_name(name: str) -> "tuple[str, Optional[str]]":
    """Default cluster/epoch of a member name: split on the last ``@``."""
    if "@" in name:
        cluster, _, epoch = name.rpartition("@")
        if cluster and epoch:
            return cluster, epoch
    return name, None


class CatalogEntry:
    """One named store in a catalog; caches the open handle per manifest state.

    Attributes:
        name: the member (subdirectory) name.
        directory: absolute or catalog-relative store directory.
        cluster: which deployment the member belongs to (defaults to the part
            of the name before the last ``@``, or the whole name).
        epoch: which time epoch the member covers, or ``None``; epochs of one
            cluster order lexicographically.
    """

    def __init__(self, name: str, directory: str,
                 cluster: Optional[str] = None, epoch: Optional[str] = None):
        self.name = name
        self.directory = directory
        default_cluster, default_epoch = _split_member_name(name)
        self.cluster = default_cluster if cluster is None else str(cluster)
        self.epoch = default_epoch if epoch is None else str(epoch)
        self._handle: Optional[ChunkedTraceStore] = None
        self._manifest_state: Optional[tuple] = None

    def _current_manifest_state(self) -> Optional[tuple]:
        try:
            stat = os.stat(os.path.join(self.directory, MANIFEST_NAME))
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def open(self) -> ChunkedTraceStore:
        """A :class:`ChunkedTraceStore` handle on the current manifest.

        Re-opens only when the manifest file changed since the cached handle
        was created.  Raises :class:`TraceFormatError` when the directory no
        longer holds a readable store.
        """
        state = self._current_manifest_state()
        if self._handle is None or state != self._manifest_state:
            self._handle = ChunkedTraceStore(self.directory)
            self._manifest_state = state
        return self._handle

    def info(self) -> Dict:
        """The store's machine-readable metadata plus its catalog identity."""
        info = self.open().info()
        info["catalog_name"] = self.name
        info["cluster"] = self.cluster
        info["epoch"] = self.epoch
        return info


class StoreCatalog:
    """Directory of named stores (see module docs for the on-disk layout)."""

    def __init__(self, directory):
        self.directory = str(directory)
        if not os.path.isdir(self.directory):
            raise TraceFormatError("catalog directory %s does not exist"
                                   % (self.directory,))
        self._entries: Dict[str, CatalogEntry] = {}
        self.refresh()

    def _member_metadata(self) -> Dict[str, Dict]:
        """Per-member overrides from ``catalog.json`` (missing file: empty)."""
        path = os.path.join(self.directory, CATALOG_METADATA_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            return {}
        except json.JSONDecodeError as exc:
            raise TraceFormatError("catalog metadata %s is not valid JSON: %s"
                                   % (path, exc))
        members = document.get("members", {})
        if not isinstance(members, dict):
            raise TraceFormatError('catalog metadata %s: "members" must be an '
                                   "object mapping member names" % (path,))
        return members

    def refresh(self) -> None:
        """Rescan the catalog directory for store subdirectories."""
        metadata = self._member_metadata()
        found: Dict[str, CatalogEntry] = {}
        for name in sorted(os.listdir(self.directory)):
            directory = os.path.join(self.directory, name)
            if not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
                continue
            overrides = metadata.get(name, {})
            entry = self._entries.get(name)
            if entry is None:
                entry = CatalogEntry(name, directory,
                                     cluster=overrides.get("cluster"),
                                     epoch=overrides.get("epoch"))
            else:
                # Keep the cached handle; re-apply metadata, which may have
                # changed on disk since the entry was first discovered.
                default_cluster, default_epoch = _split_member_name(name)
                entry.cluster = str(overrides.get("cluster") or default_cluster)
                epoch = overrides.get("epoch")
                entry.epoch = default_epoch if epoch is None else str(epoch)
            found[name] = entry
        self._entries = found

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entry(self, name: str) -> CatalogEntry:
        """The entry for ``name``; rescans once before failing.

        Raises:
            TraceFormatError: when no store of that name exists.
        """
        if name not in self._entries:
            self.refresh()
        if name not in self._entries:
            raise TraceFormatError(
                "catalog %s has no store named %r (have: %s)"
                % (self.directory, name, ", ".join(self.names()) or "<none>"))
        return self._entries[name]

    def open(self, name: str) -> ChunkedTraceStore:
        return self.entry(name).open()

    def members(self) -> List[CatalogEntry]:
        """Every entry, in member-name order."""
        return [self._entries[name] for name in self.names()]

    def clusters(self) -> List[str]:
        """Distinct cluster names, sorted."""
        return sorted({entry.cluster for entry in self._entries.values()})

    def epochs(self, cluster: str) -> List[CatalogEntry]:
        """The cluster's members in epoch order (lexicographic; no-epoch first).

        The federation drift report compares consecutive pairs of this list —
        the §4.1 FB-2009 → FB-2010 walk generalized to any epoch chain.
        """
        members = [entry for entry in self.members() if entry.cluster == cluster]
        return sorted(members, key=lambda entry: (entry.epoch is not None,
                                                  entry.epoch or "", entry.name))

    def info(self) -> List[Dict]:
        """Machine-readable metadata for every store in the catalog."""
        return [self._entries[name].info() for name in self.names()]
