"""Property layer for the sharded cache array.

Three families of properties pin the sharding design down:

1. **Routing is a total partition** — every LBN maps to exactly one
   shard, deterministically, and all pages of one erase group land on
   the same shard (for both policies), so block-level mapping density
   survives sharding.
2. **Shard count is invisible to logical contents** — the same
   operation sequence applied to arrays of 1, 2, 4 and 7 shards leaves
   the identical logical cache: same cached LBNs, same values, same
   dirty set (``exists``).  Sharding may move blocks between devices,
   never change what the cache holds.
3. **Stats aggregation is a commutative monoid** — ``merge()`` on
   :class:`ManagerStats`, :class:`FTLStats` and :class:`FlashStats` is
   associative and commutative with the default-constructed value as
   unit, which is what makes per-shard aggregation order-independent.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import NotPresentError
from repro.core.sharding import ShardedSSC, ShardRouter, mix64
from repro.flash.chip import FlashStats
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FTLStats
from repro.manager.base import ManagerStats
from repro.ssc.device import SolidStateCache, SSCConfig

SHARD_COUNTS = (1, 2, 4, 7)
LBN_RANGE = 64
PAGES_PER_BLOCK = 8


def build_array(shards: int) -> ShardedSSC:
    """An array whose members are each big enough for the whole op
    budget — no silent eviction, so logical contents depend only on
    the issued operations, never on shard-local capacity pressure."""
    members = [
        SolidStateCache(
            FlashGeometry(planes=2, blocks_per_plane=16,
                          pages_per_block=PAGES_PER_BLOCK),
            config=SSCConfig(),
        )
        for _ in range(shards)
    ]
    return ShardedSSC(members)


# ----------------------------------------------------------------------
# 1. Routing is a total partition at group granularity
# ----------------------------------------------------------------------

policies = st.sampled_from(["stripe", "hash"])


@given(
    lbn=st.integers(min_value=0, max_value=1 << 40),
    shards=st.integers(min_value=1, max_value=16),
    policy=policies,
)
@settings(max_examples=200, deadline=None)
def test_routing_total_and_deterministic(lbn, shards, policy):
    router = ShardRouter(shards, policy, PAGES_PER_BLOCK)
    shard = router.shard_of(lbn)
    assert 0 <= shard < shards
    assert router.shard_of(lbn) == shard  # deterministic


@given(
    group=st.integers(min_value=0, max_value=1 << 30),
    shards=st.integers(min_value=1, max_value=16),
    policy=policies,
)
@settings(max_examples=200, deadline=None)
def test_routing_group_granular(group, shards, policy):
    """Every page of one erase group routes to the same shard."""
    router = ShardRouter(shards, policy, PAGES_PER_BLOCK)
    base = group * PAGES_PER_BLOCK
    owners = {router.shard_of(base + offset) for offset in range(PAGES_PER_BLOCK)}
    assert len(owners) == 1


@given(shards=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_stripe_round_robins_groups(shards):
    router = ShardRouter(shards, "stripe", PAGES_PER_BLOCK)
    for group in range(3 * shards):
        assert router.shard_of(group * PAGES_PER_BLOCK) == group % shards


def test_mix64_is_a_bijection_sample():
    # The finalizer is invertible on 64-bit values; a collision in a
    # large sample would mean it is not mixing (and would skew shard
    # load).  2^16 distinct inputs must give 2^16 distinct outputs.
    outputs = {mix64(value) for value in range(1 << 16)}
    assert len(outputs) == 1 << 16


# ----------------------------------------------------------------------
# 2. Logical contents are invariant in the shard count
# ----------------------------------------------------------------------

operations = st.lists(
    st.tuples(
        st.sampled_from(["write_dirty", "write_clean", "clean", "evict"]),
        st.integers(min_value=0, max_value=LBN_RANGE - 1),
    ),
    max_size=25,
)


def apply_ops(array: ShardedSSC, ops) -> None:
    for index, (kind, lbn) in enumerate(ops):
        if kind == "write_dirty":
            array.write_dirty(lbn, ("v", lbn, index))
        elif kind == "write_clean":
            array.write_clean(lbn, ("v", lbn, index))
        elif kind == "clean":
            array.clean(lbn)
        else:
            array.evict(lbn)


def logical_state(array: ShardedSSC):
    """Everything a host can observe about contents, as one value."""
    contents = {}
    for lbn in range(LBN_RANGE):
        try:
            value, _completion = array.read(lbn)
        except NotPresentError:
            continue
        contents[lbn] = (value, array.is_dirty(lbn))
    dirty, _cost = array.exists(0, LBN_RANGE)
    cached = sorted(array.iter_cached_lbns())
    return contents, dirty, cached, array.cached_blocks()


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_contents_invariant_across_shard_counts(ops):
    reference = None
    for shards in SHARD_COUNTS:
        array = build_array(shards)
        apply_ops(array, ops)
        state = logical_state(array)
        if reference is None:
            reference = state
        else:
            assert state == reference, f"shards={shards} diverged"


@given(ops=operations, policy=policies)
@settings(max_examples=20, deadline=None)
def test_contents_invariant_across_policies(ops, policy):
    """The routing policy relocates blocks, never changes contents."""
    members = [
        SolidStateCache(
            FlashGeometry(planes=2, blocks_per_plane=16,
                          pages_per_block=PAGES_PER_BLOCK),
            config=SSCConfig(),
        )
        for _ in range(4)
    ]
    array = ShardedSSC(members, routing=policy)
    apply_ops(array, ops)

    baseline = build_array(1)
    apply_ops(baseline, ops)
    assert logical_state(array) == logical_state(baseline)


@given(ops=operations)
@settings(max_examples=15, deadline=None)
def test_every_cached_block_lives_on_its_routed_shard(ops):
    array = build_array(4)
    apply_ops(array, ops)
    for shard_id, shard in enumerate(array.shards):
        for lbn in shard.engine.iter_cached_lbns():
            assert array.router.shard_of(lbn) == shard_id


# ----------------------------------------------------------------------
# 3. merge() is a commutative monoid
# ----------------------------------------------------------------------

counters = st.integers(min_value=0, max_value=1 << 30)


def _stats_strategy(cls):
    fields = list(vars(cls()).keys())
    return st.builds(
        lambda values: cls(**dict(zip(fields, values))),
        st.tuples(*[counters for _ in fields]),
    )


manager_stats = _stats_strategy(ManagerStats)
ftl_stats = _stats_strategy(FTLStats)
flash_stats = _stats_strategy(FlashStats)


@given(a=manager_stats, b=manager_stats, c=manager_stats)
@settings(max_examples=50, deadline=None)
def test_manager_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(ManagerStats())) == vars(a)
    assert vars(ManagerStats().merge(a)) == vars(a)


@given(a=ftl_stats, b=ftl_stats, c=ftl_stats)
@settings(max_examples=50, deadline=None)
def test_ftl_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(FTLStats())) == vars(a)


@given(a=flash_stats, b=flash_stats, c=flash_stats)
@settings(max_examples=50, deadline=None)
def test_flash_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(FlashStats())) == vars(a)


@given(a=manager_stats, b=manager_stats)
@settings(max_examples=50, deadline=None)
def test_merge_never_mutates(a, b):
    before_a, before_b = dict(vars(a)), dict(vars(b))
    a.merge(b)
    assert vars(a) == before_a
    assert vars(b) == before_b
