"""Sharded world table and per-shard WT/IWT caches (fleet scale).

One simulated machine hosting *thousands* of worlds across many tenant
VMs cannot afford the flat table's blast radius: with one global LRU
pair, one tenant's cache-fill traffic evicts everyone else's hot
entries.

:class:`ShardedWorldTable` splits the WID space into ``shards``
contiguous ranges of ``stride`` WIDs each.  Every owner VM is pinned to
one shard (round-robin at first world creation, or explicitly via
:meth:`pin_owner`), WIDs are allocated from the shard's own monotonic
counter (never reused, still unforgeable), and every structural
mutation bumps only the owning shard's epoch.  ``shard_of(wid)`` is
pure arithmetic — ``(wid - 1) // stride`` — so routing costs one
integer divide, and the flat table's O(1) dict walks are untouched.

:class:`ShardedWorldTableCaches` mirrors the split on the per-core
cache pair: each shard gets its own fixed-capacity WT/IWT LRU, so
``manage_wtc`` traffic servicing tenant A's misses cannot evict tenant
B's resident entries.  The facade keeps the exact probe surface of
:class:`~repro.hw.world_table.WorldTableCaches` (``wt``/``iwt``,
``lookup_*`` raising :class:`~repro.errors.WorldTableCacheMiss`) so the
CPU datapath runs on it unmodified.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.errors import SimulationError, WorldTableCacheMiss
from repro.hw.world_table import (
    ContextKey,
    WorldTable,
    WorldTableCaches,
    WorldTableEntry,
)

__all__ = ["ShardedWorldTable", "ShardedWorldTableCaches",
           "DEFAULT_SHARDS", "DEFAULT_STRIDE"]

#: Default shard count — enough isolation for the fleet campaigns
#: while keeping per-shard caches warm.
DEFAULT_SHARDS = 8
#: WIDs per shard range.  2048 worlds per shard covers 1000 tenants
#: with caller+callee worlds each at the default shard count.
DEFAULT_STRIDE = 2048


class ShardedWorldTable(WorldTable):
    """A world table whose WID space is split into contiguous shards.

    Drop-in for :class:`~repro.hw.world_table.WorldTable`: every base
    lookup/walk stays O(1) on the shared dicts; only WID allocation and
    epoch accounting are shard-local.
    """

    def __init__(self, shards: int = DEFAULT_SHARDS,
                 stride: int = DEFAULT_STRIDE) -> None:
        if shards <= 0 or stride <= 0:
            raise SimulationError("shards and stride must be positive")
        super().__init__()
        self.shards = shards
        self.stride = stride
        #: Next free WID per shard (monotonic inside the shard range).
        self._shard_next: List[int] = [s * stride + 1
                                       for s in range(shards)]
        #: Per-shard structural mutation epochs.
        self._shard_epochs: List[int] = [0] * shards
        #: Owner VM -> pinned shard index.
        self._owner_shard: Dict[object, int] = {}
        self._next_assignment = 0

    # -- routing --------------------------------------------------------

    def shard_of(self, wid: int) -> int:
        """The shard owning ``wid`` (pure arithmetic, clamped so stale
        or forged WIDs still land on *a* shard instead of faulting the
        accounting path — the table walk itself still rejects them)."""
        shard = (wid - 1) // self.stride
        if shard < 0:
            return 0
        if shard >= self.shards:
            return self.shards - 1
        return shard

    def shard_for_owner(self, owner_vm: Optional[object]) -> int:
        """The shard an owner's worlds are allocated in.

        Host-mode worlds (``owner_vm is None``) live in shard 0; tenant
        VMs are pinned round-robin on first use so a fleet of tenants
        spreads evenly without any configuration.
        """
        if owner_vm is None:
            return 0
        shard = self._owner_shard.get(owner_vm)
        if shard is None:
            shard = self._next_assignment % self.shards
            self._owner_shard[owner_vm] = shard
            self._next_assignment += 1
        return shard

    def pin_owner(self, owner_vm: object, shard: int) -> None:
        """Pin an owner VM to a specific shard (fleet placement)."""
        if not 0 <= shard < self.shards:
            raise SimulationError(
                f"shard {shard} out of range [0, {self.shards})")
        self._owner_shard[owner_vm] = shard

    # -- WorldTable hooks ----------------------------------------------

    def _allocate_wid(self, owner_vm: Optional[object]) -> int:
        shard = self.shard_for_owner(owner_vm)
        wid = self._shard_next[shard]
        if wid > (shard + 1) * self.stride:
            raise SimulationError(
                f"shard {shard} exhausted its WID range "
                f"(stride {self.stride}); WIDs are never reused")
        self._shard_next[shard] = wid + 1
        return wid

    def _bump_epoch(self, wid: int) -> None:
        self._shard_epochs[self.shard_of(wid)] += 1

    # -- inspection -----------------------------------------------------

    def worlds_in_shard(self, shard: int) -> int:
        """Live-world count in one shard (O(shard range) scan-free:
        derived from the shard allocator minus destroyed entries would
        undercount restores, so this counts the dict — O(n) and only
        used by artifact assembly, never on a call path)."""
        lo, hi = shard * self.stride + 1, (shard + 1) * self.stride
        return sum(1 for wid in self._by_wid if lo <= wid <= hi)

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard occupancy and epochs for the fleet artifact."""
        return [{
            "shard": s,
            "first_wid": s * self.stride + 1,
            "next_wid": self._shard_next[s],
            "worlds": self.worlds_in_shard(s),
            "epoch": self._shard_epochs[s],
        } for s in range(self.shards)]


class _ShardedLRU:
    """Per-shard fixed-capacity LRUs behind one flat probe surface.

    ``_entries`` is the union dict every probe hits — O(1) and always
    in sync with the per-shard LRUs, which carry the capacity/eviction
    bookkeeping so one shard's fills can only evict that shard's
    entries.
    """

    __slots__ = ("capacity", "_lrus", "_entries", "_key_shard",
                 "hits", "misses")

    def __init__(self, shards: int, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("cache capacity must be positive")
        self.capacity = capacity
        self._lrus: List["OrderedDict[object, WorldTableEntry]"] = [
            OrderedDict() for _ in range(shards)]
        self._entries: Dict[object, WorldTableEntry] = {}
        self._key_shard: Dict[object, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def lookup(self, key: object) -> Optional[WorldTableEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._lrus[self._key_shard[key]].move_to_end(key)
        self.hits += 1
        return entry

    def fill(self, key: object, entry: WorldTableEntry,
             shard: int) -> None:
        lru = self._lrus[shard]
        if key in lru:
            lru.move_to_end(key)
        elif key in self._key_shard:
            # The key migrated shards (owner re-pinned): evict the old
            # residence first so the union stays one-entry-per-key.
            self._lrus[self._key_shard[key]].pop(key, None)
        lru[key] = entry
        self._entries[key] = entry
        self._key_shard[key] = shard
        while len(lru) > self.capacity:
            evicted_key, _ = lru.popitem(last=False)
            self._entries.pop(evicted_key, None)
            self._key_shard.pop(evicted_key, None)

    def invalidate(self, key: object) -> bool:
        shard = self._key_shard.pop(key, None)
        if shard is None:
            return False
        self._lrus[shard].pop(key, None)
        self._entries.pop(key, None)
        return True

    def flush(self) -> None:
        for lru in self._lrus:
            lru.clear()
        self._entries.clear()
        self._key_shard.clear()


class ShardedWorldTableCaches(WorldTableCaches):
    """Per-core WT/IWT caches partitioned by the table's shards.

    Capacity is *per shard*: tenant A's ``manage_wtc`` fills can evict
    only shard-A entries.
    """

    def __init__(self, table: ShardedWorldTable,
                 capacity: int = 16) -> None:
        self._table = table
        self.wt = _ShardedLRU(table.shards, capacity)
        self.iwt = _ShardedLRU(table.shards, capacity)

    def lookup_callee(self, wid: int) -> WorldTableEntry:
        entry = self.wt.lookup(wid)
        if entry is None:
            raise WorldTableCacheMiss("wt", wid)
        return entry

    def lookup_caller(self, key: ContextKey) -> WorldTableEntry:
        entry = self.iwt.lookup(key)
        if entry is None:
            raise WorldTableCacheMiss("iwt", key)
        return entry

    def fill(self, entry: WorldTableEntry) -> None:
        shard = self._table.shard_of(entry.wid)
        self.wt.fill(entry.wid, entry, shard)
        self.iwt.fill(entry.context_key(), entry, shard)

    def invalidate(self, entry: WorldTableEntry) -> None:
        self.wt.invalidate(entry.wid)
        self.iwt.invalidate(entry.context_key())

    def flush(self) -> None:
        self.wt.flush()
        self.iwt.flush()
