import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache import Cache, CacheConfig, CacheHierarchy
from repro.uarch.config import APPENDIX_A_CORES


def _cfg(assoc=2, block=64, sets=4, latency=2):
    return CacheConfig(assoc=assoc, block=block, sets=sets, latency=latency)


class TestCacheConfig:
    def test_size_bytes(self):
        assert _cfg(assoc=2, block=64, sets=4).size_bytes == 512

    def test_block_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(assoc=1, block=48, sets=4, latency=1)

    def test_sets_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(assoc=1, block=64, sets=3, latency=1)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            CacheConfig(assoc=0, block=64, sets=4, latency=1)
        with pytest.raises(ValueError):
            CacheConfig(assoc=1, block=64, sets=4, latency=0)


class TestCache:
    def test_miss_then_hit(self):
        c = Cache(_cfg())
        assert not c.lookup(0x1000)
        assert c.lookup(0x1000)
        assert c.hits == 1 and c.misses == 1

    def test_same_block_hits(self):
        c = Cache(_cfg(block=64))
        c.lookup(0x1000)
        assert c.lookup(0x1038)  # same 64B block

    def test_different_block_misses(self):
        c = Cache(_cfg(block=64))
        c.lookup(0x1000)
        assert not c.lookup(0x1040)

    def test_lru_eviction(self):
        c = Cache(_cfg(assoc=2, block=64, sets=1))
        a, b, d = 0x0, 0x40, 0x80  # all map to the single set
        c.lookup(a)
        c.lookup(b)
        c.lookup(d)          # evicts a (LRU)
        assert not c.contains(a)
        assert c.contains(b) and c.contains(d)

    def test_lru_touch_refreshes(self):
        c = Cache(_cfg(assoc=2, block=64, sets=1))
        a, b, d = 0x0, 0x40, 0x80
        c.lookup(a)
        c.lookup(b)
        c.lookup(a)          # refresh a; b becomes LRU
        c.lookup(d)          # evicts b
        assert c.contains(a) and not c.contains(b)

    def test_no_allocate(self):
        c = Cache(_cfg())
        c.lookup(0x1000, allocate=False)
        assert not c.contains(0x1000)

    def test_contains_no_stats(self):
        c = Cache(_cfg())
        c.contains(0x1000)
        assert c.accesses == 0

    def test_set_occupancy_bounded(self):
        c = Cache(_cfg(assoc=2, block=64, sets=1))
        for i in range(10):
            c.lookup(i * 64)
        assert len(c._sets[0]) <= 2

    def test_miss_rate(self):
        c = Cache(_cfg())
        assert c.miss_rate == 0.0
        c.lookup(0)
        c.lookup(0)
        assert c.miss_rate == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        c = Cache(_cfg())
        c.lookup(0x1000)
        c.reset_stats()
        assert c.accesses == 0
        assert c.contains(0x1000)

    @settings(max_examples=20, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
    def test_hits_plus_misses(self, addrs):
        c = Cache(_cfg(assoc=4, block=32, sets=8))
        for a in addrs:
            c.lookup(a)
        assert c.hits + c.misses == len(addrs)

    @settings(max_examples=20, deadline=None)
    @given(addr=st.integers(0, 1 << 30))
    def test_lookup_then_contains(self, addr):
        c = Cache(_cfg())
        c.lookup(addr)
        assert c.contains(addr)


#: every distinct L1 and L2 geometry of the Appendix-A cores
APPENDIX_A_GEOMETRIES = sorted(
    {c.l1 for c in APPENDIX_A_CORES.values()}
    | {c.l2 for c in APPENDIX_A_CORES.values()},
    key=lambda g: (g.sets, g.assoc, g.block, g.latency),
)


class _NaiveLRU:
    """Reference model: one list per set, built up front, true LRU."""

    def __init__(self, config):
        self.config = config
        self.sets = [[] for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0

    def _where(self, addr):
        block = addr // self.config.block
        return self.sets[block % self.config.sets], block // self.config.sets

    def lookup(self, addr, allocate=True):
        entries, tag = self._where(addr)
        if tag in entries:
            self.hits += 1
            entries.remove(tag)
            entries.insert(0, tag)
            return True
        self.misses += 1
        if allocate:
            entries.insert(0, tag)
            del entries[self.config.assoc:]
        return False

    def contains(self, addr):
        entries, tag = self._where(addr)
        return tag in entries


# (operation, tag, set, byte offset): a few tags over a few sets, so that
# sequences hit, miss and evict; the set is taken modulo the set count
_ACCESSES = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup", "probe", "contains"]),
        st.integers(0, 24),
        st.sampled_from([0, 1, 5, 127, 4095, 32767]),
        st.integers(0, 511),
    ),
    max_size=120,
)


class TestLazySets:
    @pytest.mark.parametrize(
        "geometry", APPENDIX_A_GEOMETRIES,
        ids=lambda g: f"{g.assoc}x{g.block}Bx{g.sets}",
    )
    @settings(max_examples=25, deadline=None)
    @given(accesses=_ACCESSES)
    def test_matches_a_naive_true_lru(self, geometry, accesses):
        cache = Cache(geometry)
        model = _NaiveLRU(geometry)
        for op, tag, index, offset in accesses:
            addr = (
                (tag * geometry.sets + index % geometry.sets) * geometry.block
                + offset % geometry.block
            )
            if op == "contains":
                assert cache.contains(addr) == model.contains(addr)
            else:
                allocate = op == "lookup"
                assert cache.lookup(addr, allocate) == model.lookup(
                    addr, allocate
                )
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        assert len(cache._sets) <= geometry.sets

    def test_construction_allocates_no_set(self):
        geometry = max(APPENDIX_A_GEOMETRIES, key=lambda g: g.sets)
        assert geometry.sets == 32768
        cache = Cache(geometry)
        assert len(cache._sets) == 0

    def test_only_allocating_misses_allocate_sets(self):
        cache = Cache(_cfg(sets=32768))
        cache.contains(0)
        cache.lookup(0, allocate=False)
        assert len(cache._sets) == 0
        cache.lookup(0)
        cache.lookup(64)
        assert len(cache._sets) == 2


class TestHierarchy:
    def _hier(self):
        return CacheHierarchy(
            l1=_cfg(assoc=1, block=64, sets=2, latency=2),
            l2=_cfg(assoc=2, block=64, sets=8, latency=10),
            mem_latency=100,
        )

    def test_l1_hit_latency(self):
        h = self._hier()
        h.access(0)  # warm
        assert h.access(0) == 2

    def test_l2_hit_latency(self):
        h = self._hier()
        h.access(0x0)
        h.access(0x80)  # evicts 0x0 from direct-mapped L1 set 0
        lat = h.access(0x0)
        assert lat == 2 + 10

    def test_full_miss_latency(self):
        h = self._hier()
        assert h.access(0x4000) == 2 + 10 + 100

    def test_write_allocates(self):
        h = self._hier()
        h.write(0x1000)
        assert h.access(0x1000) == 2

    def test_mem_latency_validation(self):
        with pytest.raises(ValueError):
            CacheHierarchy(_cfg(), _cfg(), mem_latency=0)

    def test_reset_stats(self):
        h = self._hier()
        h.access(0)
        h.reset_stats()
        assert h.l1.accesses == 0 and h.l2.accesses == 0
