"""CrossOver's world table and its two hardware caches (Section 3.2, 5.1).

A **world** is an address space in a specific mode: the tuple
*(H/G mode, ring, EPTP, page-table pointer)* plus a single entry-point
address.  The **world table** lives in memory only the most privileged
software can touch; the hypervisor creates entries and allocates
unforgeable WIDs.  Two small per-core caches accelerate ``world_call``:

* **WT cache** — keyed by WID; finds the *callee's* context.
* **IWT cache** (inverted) — keyed by context; finds the *caller's* WID.

Both caches are software-managed (like a software-managed TLB): a miss
raises an exception to the privileged software, which walks the world
table and fills the cache via ``manage_wtc``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import NoSuchWorld, SimulationError, WorldTableCacheMiss
from repro.hw.ept import EPT
from repro.hw.paging import PageTable

#: Context key type: (is_host_mode, ring, eptp-token, page-table root).
ContextKey = Tuple[bool, int, int, int]


@dataclass
class WorldTableEntry:
    """One row of the world table (Figure 5, right).

    Fields mirror the paper: present bit, WID, H/G bit, ring, EPTP, PTP
    and the entry-point PC.  The simulator additionally keeps direct
    references to the EPT / page-table objects the tokens denote so the
    CPU can actually switch to them.
    """

    wid: int
    host_mode: bool
    ring: int
    ept: Optional[EPT]           # None for host-mode worlds (no 2nd stage)
    page_table: PageTable
    pc: int
    present: bool = True
    owner_vm: Optional[object] = None   # accounting only (DoS quotas)
    vm_name: str = "host"               # label the CPU adopts on switch

    @property
    def eptp(self) -> int:
        """EPTP token of this world (0 for host-mode worlds)."""
        return self.ept.eptp if self.ept is not None else 0

    @property
    def ptp(self) -> int:
        """Page-table-pointer token (the CR3 value of this world)."""
        return self.page_table.root

    def context_key(self) -> ContextKey:
        """The IWT-cache key identifying this world's context."""
        return (self.host_mode, self.ring, self.eptp, self.ptp)


class WorldTable:
    """The in-memory world table, owned by the hypervisor.

    WIDs are allocated monotonically and never reused, so a stale WID
    held by a malicious caller can never alias a new world.
    """

    def __init__(self) -> None:
        self._by_wid: Dict[int, WorldTableEntry] = {}
        self._by_context: Dict[ContextKey, WorldTableEntry] = {}
        self._next_wid = 1
        #: Live-world count per owner VM, maintained on every mutation
        #: so the per-VM DoS-quota check stays O(1) with thousands of
        #: worlds (keys are the owner objects; identity semantics).
        self._owned: Dict[object, int] = {}

    # -- ownership accounting (O(1) quota checks) ----------------------

    def _own(self, entry: WorldTableEntry) -> None:
        if entry.owner_vm is not None:
            self._owned[entry.owner_vm] = \
                self._owned.get(entry.owner_vm, 0) + 1

    def _disown(self, entry: WorldTableEntry) -> None:
        if entry.owner_vm is not None:
            remaining = self._owned.get(entry.owner_vm, 0) - 1
            if remaining > 0:
                self._owned[entry.owner_vm] = remaining
            else:
                self._owned.pop(entry.owner_vm, None)

    def __len__(self) -> int:
        return len(self._by_wid)

    def _allocate_wid(self, owner_vm: Optional[object]) -> int:
        """Take the next unforgeable WID (monotonic, never reused).

        The sharded table overrides this to draw from the owner's
        shard-local range instead; either way the allocation is O(1).
        """
        wid = self._next_wid
        self._next_wid += 1
        return wid

    def _bump_epoch(self, wid: int) -> None:
        """Account one structural mutation touching ``wid``.

        The flat table keeps no mutation history; the sharded table
        (:class:`repro.fleet.shards.ShardedWorldTable`) counts the
        owning shard's epoch for its ``shard_stats``.
        """

    def create(self, *, host_mode: bool, ring: int, ept: Optional[EPT],
               page_table: PageTable, pc: int,
               owner_vm: Optional[object] = None,
               vm_name: str = "host") -> WorldTableEntry:
        """Add a world and return its entry (with a fresh, unique WID)."""
        if ring not in (0, 3):
            raise SimulationError(f"unsupported ring level {ring}")
        key: ContextKey = (host_mode, ring,
                           ept.eptp if ept is not None else 0,
                           page_table.root)
        if key in self._by_context:
            raise SimulationError(
                f"a world already exists for context {key!r} "
                f"(WID {self._by_context[key].wid})")
        entry = WorldTableEntry(
            wid=self._allocate_wid(owner_vm), host_mode=host_mode,
            ring=ring, ept=ept, page_table=page_table, pc=pc,
            owner_vm=owner_vm, vm_name=vm_name)
        self._by_wid[entry.wid] = entry
        self._by_context[key] = entry
        self._own(entry)
        self._bump_epoch(entry.wid)
        return entry

    def destroy(self, wid: int) -> WorldTableEntry:
        """Remove a world; returns the removed entry."""
        entry = self._by_wid.pop(wid, None)
        if entry is None:
            raise NoSuchWorld(wid)
        del self._by_context[entry.context_key()]
        self._disown(entry)
        self._bump_epoch(wid)
        return entry

    def peek(self, wid: int) -> Optional[WorldTableEntry]:
        """Look up an entry without the NoSuchWorld fault (inspection)."""
        return self._by_wid.get(wid)

    def evict(self, wid: int) -> Optional[WorldTableEntry]:
        """Silently drop an entry from the table (fault injection).

        Unlike :meth:`destroy` this neither faults on absence nor clears
        the present bit — it models the entry's *storage* being lost, so
        a later :meth:`restore_entry` can put the same object back.
        """
        entry = self._by_wid.pop(wid, None)
        if entry is not None:
            self._by_context.pop(entry.context_key(), None)
            self._disown(entry)
            self._bump_epoch(wid)
        return entry

    def restore_entry(self, entry: WorldTableEntry) -> None:
        """Re-insert an entry removed by :meth:`evict`."""
        self._by_wid[entry.wid] = entry
        self._by_context[entry.context_key()] = entry
        self._own(entry)
        self._bump_epoch(entry.wid)

    def walk_by_wid(self, wid: int) -> WorldTableEntry:
        """Table walk by WID (hypervisor path on a WT-cache miss)."""
        entry = self._by_wid.get(wid)
        if entry is None:
            raise NoSuchWorld(wid)
        return entry

    def walk_by_context(self, key: ContextKey) -> WorldTableEntry:
        """Table walk by context (hypervisor path on an IWT-cache miss)."""
        entry = self._by_context.get(key)
        if entry is None:
            raise NoSuchWorld(key)
        return entry

    def worlds_owned_by(self, vm: object) -> int:
        """How many live worlds a VM owns (for per-VM DoS quotas).

        O(1): the count is maintained incrementally on every mutation,
        so ``create_world`` under thousands of live worlds never walks
        the table.
        """
        return self._owned.get(vm, 0)


class _LRUCache:
    """Small fixed-capacity LRU used for both world-table caches."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[object, WorldTableEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def lookup(self, key: object) -> Optional[WorldTableEntry]:
        """Return the cached entry (refreshing LRU order) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def fill(self, key: object, entry: WorldTableEntry) -> None:
        """Insert an entry, evicting the least-recently-used if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: object) -> bool:
        """Drop one entry; returns True if it was present."""
        return self._entries.pop(key, None) is not None

    def flush(self) -> None:
        """Drop every entry."""
        self._entries.clear()


class WTCache(_LRUCache):
    """Per-core cache keyed by WID -> world entry (callee lookup)."""


class IWTCache(_LRUCache):
    """Per-core inverted cache keyed by context -> world entry (caller
    lookup)."""


class WorldTableCaches:
    """The pair of per-core caches plus lookup helpers used by the CPU.

    ``lookup_*`` raise :class:`~repro.errors.WorldTableCacheMiss` on a
    miss — the hardware behaviour (Section 5.1): the exception traps to
    the privileged software, which fills the cache and re-executes.
    """

    def __init__(self, capacity: int = 16) -> None:
        self.wt = WTCache(capacity)
        self.iwt = IWTCache(capacity)

    def lookup_callee(self, wid: int) -> WorldTableEntry:
        """WT-cache lookup by WID; raises on miss."""
        entry = self.wt.lookup(wid)
        if entry is None:
            raise WorldTableCacheMiss("wt", wid)
        return entry

    def lookup_caller(self, key: ContextKey) -> WorldTableEntry:
        """IWT-cache lookup by context; raises on miss."""
        entry = self.iwt.lookup(key)
        if entry is None:
            raise WorldTableCacheMiss("iwt", key)
        return entry

    def fill(self, entry: WorldTableEntry) -> None:
        """Fill both caches for ``entry`` (a ``manage_wtc`` fill)."""
        self.wt.fill(entry.wid, entry)
        self.iwt.fill(entry.context_key(), entry)

    def invalidate(self, entry: WorldTableEntry) -> None:
        """Invalidate ``entry`` in both caches (a ``manage_wtc`` inval)."""
        self.wt.invalidate(entry.wid)
        self.iwt.invalidate(entry.context_key())

    def flush(self) -> None:
        """Flush both caches."""
        self.wt.flush()
        self.iwt.flush()
