"""Sharded world table + per-shard caches: ranges, epochs, isolation."""

import pytest

from repro.errors import SimulationError, WorldTableCacheMiss
from repro.fleet.shards import (
    DEFAULT_SHARDS,
    ShardedWorldTable,
    ShardedWorldTableCaches,
)
from repro.hw.paging import PageTable


def make_table(shards=4, stride=64):
    return ShardedWorldTable(shards=shards, stride=stride)


def create(table, i, owner=None):
    pt = PageTable(f"pt{i}")
    pt.map(0x1000 * (i + 1), 0x2000 * (i + 1), user=False, executable=True)
    return table.create(host_mode=True, ring=0, ept=None, page_table=pt,
                        pc=0x1000 * (i + 1), owner_vm=owner,
                        vm_name=f"w{i}")


class TestShardedAllocation:
    def test_wids_land_in_owner_shard_range(self):
        table = make_table(shards=4, stride=64)

        class VM:
            pass

        for shard in range(4):
            vm = VM()
            table.pin_owner(vm, shard)
            entry = create(table, shard, owner=vm)
            low = shard * 64 + 1
            assert low <= entry.wid < low + 64
            assert table.shard_of(entry.wid) == shard

    def test_unpinned_owners_round_robin(self):
        table = make_table(shards=3, stride=64)

        class VM:
            pass

        shards = [table.shard_for_owner(VM()) for _ in range(6)]
        assert shards == [0, 1, 2, 0, 1, 2]

    def test_host_worlds_allocate_from_shard_zero(self):
        table = make_table(shards=4, stride=64)
        entry = create(table, 0, owner=None)
        assert table.shard_of(entry.wid) == 0

    def test_shard_range_exhaustion_raises(self):
        table = make_table(shards=2, stride=4)

        class VM:
            pass

        vm = VM()
        table.pin_owner(vm, 1)
        for i in range(4):
            create(table, i, owner=vm)
        with pytest.raises(SimulationError):
            create(table, 99, owner=vm)

    def test_wids_never_reused_within_shard(self):
        table = make_table(shards=2, stride=64)

        class VM:
            pass

        vm = VM()
        table.pin_owner(vm, 1)
        seen = set()
        for i in range(10):
            entry = create(table, i, owner=vm)
            assert entry.wid not in seen
            seen.add(entry.wid)
            table.destroy(entry.wid)

    def test_defaults(self):
        table = ShardedWorldTable()
        assert len(table.shard_stats()) == DEFAULT_SHARDS


def shard_epochs(table):
    return [s["epoch"] for s in table.shard_stats()]


class TestPerShardEpochs:
    def test_create_bumps_only_owning_shard(self):
        table = make_table(shards=4, stride=64)

        class VM:
            pass

        vm_a, vm_b = VM(), VM()
        table.pin_owner(vm_a, 0)
        table.pin_owner(vm_b, 3)
        create(table, 0, owner=vm_a)
        before = shard_epochs(table)
        b = create(table, 1, owner=vm_b)
        assert shard_epochs(table) == [before[0], 0, 0, before[3] + 1]
        table.destroy(b.wid)
        # A's shard untouched; B's saw the create and the destroy.
        assert shard_epochs(table) == [before[0], 0, 0, before[3] + 2]

    def test_global_epoch_still_moves(self):
        """Every structural mutation lands in exactly one shard, so the
        table-wide total of shard epochs counts them all."""
        table = make_table()
        before = sum(shard_epochs(table))
        entry = create(table, 0)
        table.evict(entry.wid)
        table.restore_entry(entry)
        assert sum(shard_epochs(table)) == before + 3


class TestShardedCaches:
    def build(self, shards=2, stride=64, capacity=2):
        table = make_table(shards=shards, stride=stride)

        class VM:
            pass

        vms = []
        for shard in range(shards):
            vm = VM()
            table.pin_owner(vm, shard)
            vms.append(vm)
        caches = ShardedWorldTableCaches(table, capacity=capacity)
        return table, caches, vms

    def test_fill_leaves_other_shards_resident(self):
        table, caches, vms = self.build(capacity=1)
        a = create(table, 0, owner=vms[0])
        b = create(table, 1, owner=vms[1])
        caches.fill(a)
        caches.fill(b)
        assert a.wid in caches.wt and b.wid in caches.wt
        assert a.context_key() in caches.iwt

    def test_invalidate_leaves_other_shards_resident(self):
        table, caches, vms = self.build()
        a = create(table, 0, owner=vms[0])
        b = create(table, 1, owner=vms[1])
        caches.fill(a)
        caches.fill(b)
        caches.invalidate(b)
        assert b.wid not in caches.wt
        assert b.context_key() not in caches.iwt
        assert a.wid in caches.wt
        assert a.context_key() in caches.iwt

    def test_per_shard_capacity_isolation(self):
        """Filling one shard's cache to overflow never evicts another
        shard's entries — the cross-tenant eviction the sharding is
        there to prevent."""
        table, caches, vms = self.build(capacity=2)
        resident = create(table, 0, owner=vms[0])
        caches.fill(resident)
        others = [create(table, 10 + i, owner=vms[1]) for i in range(6)]
        for entry in others:
            caches.fill(entry)
        assert resident.wid in caches.wt            # survived the storm
        in_cache = [e.wid for e in others if e.wid in caches.wt]
        assert len(in_cache) == 2                   # capacity per shard

    def test_lookup_miss_raises_and_counts(self):
        table, caches, _vms = self.build()
        with pytest.raises(WorldTableCacheMiss) as exc:
            caches.lookup_callee(12345)
        assert exc.value.kind == "wt"
        assert caches.wt.misses == 1

    def test_flush_empties_every_shard(self):
        table, caches, vms = self.build()
        a = create(table, 0, owner=vms[0])
        b = create(table, 1, owner=vms[1])
        caches.fill(a)
        caches.fill(b)
        caches.flush()
        assert len(caches.wt) == 0 and len(caches.iwt) == 0
        # Capacity is per shard again after the flush.
        caches.fill(a)
        caches.fill(b)
        assert a.wid in caches.wt and b.wid in caches.wt


class TestOwnedCounts:
    def test_worlds_owned_by_tracks_create_destroy(self):
        table = make_table()

        class VM:
            pass

        vm = VM()
        table.pin_owner(vm, 0)
        entries = [create(table, i, owner=vm) for i in range(5)]
        assert table.worlds_owned_by(vm) == 5
        table.destroy(entries[0].wid)
        assert table.worlds_owned_by(vm) == 4
        assert table.worlds_owned_by(object()) == 0

    def test_shard_stats_shape(self):
        table = make_table(shards=2, stride=64)

        class VM:
            pass

        vm = VM()
        table.pin_owner(vm, 1)
        create(table, 0, owner=vm)
        stats = table.shard_stats()
        assert [s["shard"] for s in stats] == [0, 1]
        assert stats[1]["worlds"] == 1
        assert stats[1]["epoch"] == 1
        assert stats[0]["worlds"] == 0
        assert table.worlds_in_shard(1) == 1
        assert table.worlds_in_shard(0) == 0
