// Coherence suite for the read-path caches (core/payload_cache.h).
//
// Three layers:
//  1. Unit tests of the LRU/epoch mechanics in isolation.
//  2. Directed coherence scenarios on a Database with the cache enabled,
//     asserting byte-identical reads against a cache-disabled twin across
//     update / delete / abort / keyframe-rematerialization sequences.
//  3. A randomized differential test mirroring model_property_test.cc: the
//     same operation stream (including transactions that randomly abort)
//     runs against a cached and an uncached database, with full-state
//     comparison after every segment.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/database.h"
#include "core/payload_cache.h"
#include "tests/testing/db_fixture.h"
#include "util/random.h"

namespace ode {
namespace {

// ---------------------------------------------------------------------------
// 1. LRU/epoch unit tests
// ---------------------------------------------------------------------------
//
// Both caches are instances of one template (ShardedLru), so every scenario
// below is written once and run over both instantiations: keys and values
// come from the Keys<Cache> helpers, budgets are counted in entries via
// Charge().  Counters are read the way every caller reads them: through a
// registry snapshot, looked up by name.

VersionId Vid(uint64_t oid, VersionNum vnum) {
  return VersionId{ObjectId{oid}, vnum};
}

template <typename Cache>
struct Keys;

template <>
struct Keys<VersionPayloadCache> {
  static VersionId Key(uint64_t i) { return Vid(i / 4 + 1, i % 4 + 1); }
  static ObjectId OwnerOf(const VersionId& vid) { return vid.oid; }
  static std::string Value(uint64_t i) {
    return std::string(100, static_cast<char>('a' + i % 26));
  }
};

template <>
struct Keys<LatestVersionCache> {
  static ObjectId Key(uint64_t i) { return ObjectId{i + 1}; }
  static ObjectId OwnerOf(const ObjectId& oid) { return oid; }
  static VersionNum Value(uint64_t i) { return static_cast<VersionNum>(i + 1); }
};

/// A cache instance publishing into its own registry.
template <typename Cache>
struct CacheUnderTest {
  explicit CacheUnderTest(uint64_t budget, size_t shards = 0)
      : cache(budget, &registry, "cache", shards) {}
  uint64_t Counter(const std::string& field) const {
    return registry.SnapshotAll().counter("cache." + field);
  }
  /// Budget holding exactly `n` entries of Keys<Cache>::Value size.
  static uint64_t Charge(uint64_t n) {
    return n * (std::is_same_v<Cache, VersionPayloadCache>
                    ? 100 + PayloadCharge::kEntryOverhead
                    : 1);
  }
  MetricsRegistry registry;  // Declared first: outlives the cache's hook.
  Cache cache;
};

template <typename Cache>
void LookupMissThenHit() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(1 << 20);
  auto out = K::Value(1);
  EXPECT_FALSE(t.cache.Lookup(K::Key(0), &out));
  t.cache.Insert(K::Key(0), K::Value(0));
  ASSERT_TRUE(t.cache.Lookup(K::Key(0), &out));
  EXPECT_EQ(out, K::Value(0));
  EXPECT_EQ(t.Counter("hits"), 1u);
  EXPECT_EQ(t.Counter("misses"), 1u);
}

template <typename Cache>
void ZeroBudgetDisables() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(0);
  EXPECT_FALSE(t.cache.enabled());
  t.cache.Insert(K::Key(0), K::Value(0));
  auto out = K::Value(1);
  EXPECT_FALSE(t.cache.Lookup(K::Key(0), &out));
  EXPECT_EQ(t.cache.entries(), 0u);
  EXPECT_EQ(t.Counter("misses"), 0u);  // A disabled cache counts nothing.
}

template <typename Cache>
void BudgetEvictsLeastRecentlyUsed() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(CacheUnderTest<Cache>::Charge(3));
  for (uint64_t i = 0; i < 3; ++i) t.cache.Insert(K::Key(i), K::Value(i));
  auto out = K::Value(0);
  ASSERT_TRUE(t.cache.Lookup(K::Key(0), &out));  // 0 becomes MRU.
  t.cache.Insert(K::Key(3), K::Value(3));         // Evicts 1 (LRU).
  EXPECT_FALSE(t.cache.Lookup(K::Key(1), &out));
  EXPECT_TRUE(t.cache.Lookup(K::Key(0), &out));
  EXPECT_TRUE(t.cache.Lookup(K::Key(2), &out));
  EXPECT_TRUE(t.cache.Lookup(K::Key(3), &out));
  EXPECT_EQ(t.Counter("evictions"), 1u);
  EXPECT_LE(t.cache.charge_in_use(), t.cache.budget());
  t.cache.Erase(K::Key(3));
  EXPECT_FALSE(t.cache.Lookup(K::Key(3), &out));
  EXPECT_EQ(t.Counter("invalidations"), 1u);
}

template <typename Cache>
void EraseIfDropsMatchingKeys() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(1 << 20);
  for (uint64_t i = 0; i < 8; ++i) t.cache.Insert(K::Key(i), K::Value(i));
  const ObjectId doomed = K::OwnerOf(K::Key(0));
  uint64_t dropped = 0;
  for (uint64_t i = 0; i < 8; ++i) dropped += K::OwnerOf(K::Key(i)) == doomed;
  t.cache.EraseIf(
      [&](const auto& key) { return K::OwnerOf(key) == doomed; });
  auto out = K::Value(0);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(t.cache.Lookup(K::Key(i), &out),
              !(K::OwnerOf(K::Key(i)) == doomed))
        << "key " << i;
  }
  EXPECT_EQ(t.Counter("invalidations"), dropped);
}

template <typename Cache>
void AbortEpochDiscardsOnlyEpochInstalls() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(1 << 20);
  t.cache.Insert(K::Key(0), K::Value(0));
  t.cache.BeginEpoch();
  t.cache.Insert(K::Key(1), K::Value(1));
  t.cache.AbortEpoch();
  auto out = K::Value(0);
  EXPECT_TRUE(t.cache.Lookup(K::Key(0), &out));
  EXPECT_FALSE(t.cache.Lookup(K::Key(1), &out));
  EXPECT_EQ(t.Counter("epoch_discards"), 1u);
}

template <typename Cache>
void CommitEpochPromotesInstalls() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(1 << 20);
  t.cache.BeginEpoch();
  t.cache.Insert(K::Key(0), K::Value(0));
  t.cache.CommitEpoch();
  // A later abort of a different epoch must not touch the promoted entry.
  t.cache.BeginEpoch();
  t.cache.AbortEpoch();
  auto out = K::Value(1);
  EXPECT_TRUE(t.cache.Lookup(K::Key(0), &out));
  EXPECT_EQ(out, K::Value(0));
}

template <typename Cache>
void EpochOverwriteOfCommittedEntryIsDiscardable() {
  using K = Keys<Cache>;
  CacheUnderTest<Cache> t(1 << 20);
  t.cache.Insert(K::Key(0), K::Value(0));
  t.cache.BeginEpoch();
  t.cache.Insert(K::Key(0), K::Value(1));
  t.cache.AbortEpoch();
  // The conservative choice: the overwritten entry is dropped entirely
  // rather than restored (a miss is always safe).
  auto out = K::Value(0);
  EXPECT_FALSE(t.cache.Lookup(K::Key(0), &out));
}

/// Randomized twin: a random stream of every cache operation against a
/// model holding what each key may legally return.  A hit must return the
/// model's value (a miss is always allowed: the budget may have evicted the
/// entry), an aborted epoch's installs must never be served, the budget must
/// hold, and the hit/miss counters must add up to the probes made.
template <typename Cache>
void RandomOpsMatchModel(uint64_t seed, uint64_t budget_entries,
                         size_t shards) {
  using K = Keys<Cache>;
  using V = decltype(K::Value(0));
  CacheUnderTest<Cache> t(CacheUnderTest<Cache>::Charge(budget_entries),
                          shards);
  std::map<uint64_t, V> model;  // Key index -> the only value it may hold.
  std::set<uint64_t> epoch_keys;
  bool in_epoch = false;
  uint64_t probes = 0;
  Random rng(seed);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t i = rng.Uniform(64);
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 40) {
      V out = K::Value(i + 1);
      ++probes;
      if (t.cache.Lookup(K::Key(i), &out)) {
        ASSERT_EQ(model.count(i), 1u) << "served a key it must not hold: " << i;
        ASSERT_EQ(out, model[i]) << "stale value for key " << i;
      }
    } else if (action < 75) {
      const V value = K::Value(rng.Uniform(1000));
      t.cache.Insert(K::Key(i), value);
      model[i] = value;
      if (in_epoch) epoch_keys.insert(i);
    } else if (action < 85) {
      t.cache.Erase(K::Key(i));
      model.erase(i);
    } else if (action < 88) {
      const ObjectId owner = K::OwnerOf(K::Key(i));
      t.cache.EraseIf(
          [&](const auto& key) { return K::OwnerOf(key) == owner; });
      for (auto it = model.begin(); it != model.end();) {
        it = K::OwnerOf(K::Key(it->first)) == owner ? model.erase(it)
                                                   : std::next(it);
      }
    } else if (!in_epoch) {
      t.cache.BeginEpoch();
      in_epoch = true;
      epoch_keys.clear();
    } else {
      if (rng.OneIn(2)) {
        t.cache.CommitEpoch();
      } else {
        t.cache.AbortEpoch();
        for (uint64_t k : epoch_keys) model.erase(k);
      }
      in_epoch = false;
    }
    ASSERT_LE(t.cache.charge_in_use(), t.cache.budget());
    ASSERT_LE(t.cache.entries(), model.size());
  }
  EXPECT_EQ(t.Counter("hits") + t.Counter("misses"), probes);
}

TEST(VersionPayloadCacheTest, LookupMissThenHit) {
  LookupMissThenHit<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, LookupMissThenHit) {
  LookupMissThenHit<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, ZeroBudgetDisables) {
  ZeroBudgetDisables<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, ZeroBudgetDisables) {
  ZeroBudgetDisables<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  BudgetEvictsLeastRecentlyUsed<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, InsertLookupEraseAndEviction) {
  BudgetEvictsLeastRecentlyUsed<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, OversizedEntryNotAdmitted) {
  CacheUnderTest<VersionPayloadCache> t(128);
  t.cache.Insert(Vid(1, 1), std::string(4096, 'x'));
  EXPECT_EQ(t.cache.entries(), 0u);
}

TEST(VersionPayloadCacheTest, EraseObjectDropsAllVersions) {
  EraseIfDropsMatchingKeys<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, EraseIfDropsMatchingKeys) {
  EraseIfDropsMatchingKeys<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, AbortEpochDiscardsOnlyEpochInstalls) {
  AbortEpochDiscardsOnlyEpochInstalls<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, AbortEpochDiscardsInstalls) {
  AbortEpochDiscardsOnlyEpochInstalls<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, CommitEpochPromotesInstalls) {
  CommitEpochPromotesInstalls<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, CommitEpochPromotesInstalls) {
  CommitEpochPromotesInstalls<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, EpochOverwriteOfCommittedEntryIsDiscardable) {
  EpochOverwriteOfCommittedEntryIsDiscardable<VersionPayloadCache>();
}
TEST(LatestVersionCacheTest, EpochOverwriteOfCommittedEntryIsDiscardable) {
  EpochOverwriteOfCommittedEntryIsDiscardable<LatestVersionCache>();
}

TEST(VersionPayloadCacheTest, RandomOpsMatchModel) {
  // One shard: exact LRU under a tight budget; four: striped, roomier.
  RandomOpsMatchModel<VersionPayloadCache>(301, 12, 1);
  RandomOpsMatchModel<VersionPayloadCache>(302, 40, 4);
}
TEST(LatestVersionCacheTest, RandomOpsMatchModel) {
  RandomOpsMatchModel<LatestVersionCache>(303, 12, 1);
  RandomOpsMatchModel<LatestVersionCache>(304, 40, 4);
}

// ---------------------------------------------------------------------------
// 2. Directed database coherence scenarios
// ---------------------------------------------------------------------------

struct CacheParam {
  PayloadKind strategy;
  uint32_t keyframe;
  bool cache_enabled;
  bool chain_intermediates;
};

class CacheCoherenceTest : public ::testing::TestWithParam<CacheParam> {
 protected:
  void SetUp() override {
    const CacheParam& p = GetParam();
    DatabaseOptions options;
    options.storage.env = &env_;
    options.storage.path = "/db";
    options.clock = &clock_;
    options.payload_strategy = p.strategy;
    options.delta_keyframe_interval = p.keyframe;
    options.payload_cache_bytes = p.cache_enabled ? (8u << 20) : 0;
    options.latest_cache_entries = p.cache_enabled ? 1024 : 0;
    options.cache_chain_intermediates = p.chain_intermediates;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    auto type = db_->RegisterType("raw");
    ASSERT_TRUE(type.ok());
    type_ = *type;
  }

  std::string Read(VersionId vid) {
    auto bytes = db_->ReadVersion(vid);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return bytes.ok() ? *bytes : std::string();
  }

  MemEnv env_;
  LogicalClock clock_;
  std::unique_ptr<Database> db_;
  uint32_t type_ = 0;
};

TEST_P(CacheCoherenceTest, RepeatedReadsAreStable) {
  auto vid = db_->PnewRaw(type_, Slice("alpha"));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(Read(*vid), "alpha");
  EXPECT_EQ(Read(*vid), "alpha");  // Second read served from cache if on.
  auto latest = db_->ReadLatest(vid->oid);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, "alpha");
}

TEST_P(CacheCoherenceTest, UpdateInvalidatesCachedPayload) {
  auto vid = db_->PnewRaw(type_, Slice("before"));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(Read(*vid), "before");  // Warm the cache.
  ASSERT_TRUE(db_->UpdateVersion(*vid, Slice("after")).ok());
  EXPECT_EQ(Read(*vid), "after");
  EXPECT_EQ(*db_->ReadLatest(vid->oid), "after");
}

TEST_P(CacheCoherenceTest, NewVersionMovesLatestPointer) {
  auto v1 = db_->PnewRaw(type_, Slice("one"));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*db_->ReadLatest(v1->oid), "one");  // Warm latest cache.
  auto v2 = db_->NewVersionOf(v1->oid);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(db_->UpdateVersion(*v2, Slice("two")).ok());
  VersionId resolved;
  auto latest = db_->ReadLatest(v1->oid, &resolved);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, "two");
  EXPECT_EQ(resolved, *v2);
  EXPECT_EQ(Read(*v1), "one");  // Old version untouched.
}

TEST_P(CacheCoherenceTest, DeleteVersionInvalidatesAndRetargetsLatest) {
  auto v1 = db_->PnewRaw(type_, Slice("one"));
  ASSERT_TRUE(v1.ok());
  auto v2 = db_->NewVersionOf(v1->oid);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(db_->UpdateVersion(*v2, Slice("two")).ok());
  EXPECT_EQ(*db_->ReadLatest(v1->oid), "two");  // Warm both caches.
  EXPECT_EQ(Read(*v2), "two");
  ASSERT_TRUE(db_->PdeleteVersion(*v2).ok());
  VersionId resolved;
  auto latest = db_->ReadLatest(v1->oid, &resolved);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, "one");
  EXPECT_EQ(resolved, *v1);
  EXPECT_FALSE(db_->ReadVersion(*v2).ok());  // Gone, not served stale.
}

TEST_P(CacheCoherenceTest, DeleteObjectPurgesEverything) {
  auto v1 = db_->PnewRaw(type_, Slice("one"));
  ASSERT_TRUE(v1.ok());
  auto v2 = db_->NewVersionOf(v1->oid);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(Read(*v1), "one");
  EXPECT_EQ(Read(*v2), "one");
  ASSERT_TRUE(db_->PdeleteObject(v1->oid).ok());
  EXPECT_FALSE(db_->ReadVersion(*v1).ok());
  EXPECT_FALSE(db_->ReadVersion(*v2).ok());
  EXPECT_FALSE(db_->ReadLatest(v1->oid).ok());
}

TEST_P(CacheCoherenceTest, AbortDiscardsUncommittedReads) {
  auto vid = db_->PnewRaw(type_, Slice("committed"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(db_->Begin().ok());
  ASSERT_TRUE(db_->UpdateVersion(*vid, Slice("uncommitted")).ok());
  // Reading inside the transaction caches the uncommitted payload.
  EXPECT_EQ(Read(*vid), "uncommitted");
  ASSERT_TRUE(db_->Abort().ok());
  // After abort the cached uncommitted bytes must not be served.
  EXPECT_EQ(Read(*vid), "committed");
  EXPECT_EQ(*db_->ReadLatest(vid->oid), "committed");
}

TEST_P(CacheCoherenceTest, AbortDiscardsUncommittedLatestPointer) {
  auto v1 = db_->PnewRaw(type_, Slice("one"));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*db_->ReadLatest(v1->oid), "one");
  ASSERT_TRUE(db_->Begin().ok());
  auto v2 = db_->NewVersionOf(v1->oid);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(db_->UpdateLatest(v1->oid, Slice("two")).ok());
  EXPECT_EQ(*db_->ReadLatest(v1->oid), "two");
  ASSERT_TRUE(db_->Abort().ok());
  VersionId resolved;
  auto latest = db_->ReadLatest(v1->oid, &resolved);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, "one");
  EXPECT_EQ(resolved, *v1);
}

TEST_P(CacheCoherenceTest, CommitKeepsTransactionalReads) {
  auto vid = db_->PnewRaw(type_, Slice("v1"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(db_->Begin().ok());
  ASSERT_TRUE(db_->UpdateVersion(*vid, Slice("v2")).ok());
  EXPECT_EQ(Read(*vid), "v2");
  ASSERT_TRUE(db_->Commit().ok());
  EXPECT_EQ(Read(*vid), "v2");
}

TEST_P(CacheCoherenceTest, KeyframeRematerializationKeepsChildrenReadable) {
  // Build a chain, warm the cache along it, then update the chain's base so
  // every delta child is pinned down as a keyframe — all reads must still
  // return exactly what an uncached database returns.
  std::string payload(2048, 'a');
  auto root = db_->PnewRaw(type_, Slice(payload));
  ASSERT_TRUE(root.ok());
  std::vector<VersionId> chain{*root};
  std::vector<std::string> expected{payload};
  Random rng(33);
  for (int i = 0; i < 8; ++i) {
    auto next = db_->NewVersionFrom(chain.back());
    ASSERT_TRUE(next.ok());
    payload[rng.Uniform(payload.size())] ^= 0x3c;
    ASSERT_TRUE(db_->UpdateVersion(*next, Slice(payload)).ok());
    chain.push_back(*next);
    expected.push_back(payload);
  }
  // Warm: read deepest first (populates intermediates when enabled).
  EXPECT_EQ(Read(chain.back()), expected.back());
  // Rewrite the root: all direct delta children must be rematerialized.
  std::string new_root(2048, 'z');
  ASSERT_TRUE(db_->UpdateVersion(*root, Slice(new_root)).ok());
  expected[0] = new_root;
  for (size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(Read(chain[i]), expected[i]) << "version " << chain[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheCoherenceTest,
    ::testing::Values(
        CacheParam{PayloadKind::kFull, 16, true, true},
        CacheParam{PayloadKind::kFull, 16, false, false},
        CacheParam{PayloadKind::kDelta, 4, true, true},
        CacheParam{PayloadKind::kDelta, 4, true, false},
        CacheParam{PayloadKind::kDelta, 4, false, false},
        CacheParam{PayloadKind::kDelta, 1, true, true}),
    [](const auto& info) {
      std::string name =
          info.param.strategy == PayloadKind::kFull ? "full" : "delta";
      name += "_kf" + std::to_string(info.param.keyframe);
      name += info.param.cache_enabled ? "_cache" : "_nocache";
      if (info.param.cache_enabled && info.param.chain_intermediates) {
        name += "_chain";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// 3. Randomized differential test: cached vs uncached twin databases
// ---------------------------------------------------------------------------

struct TwinParam {
  uint64_t seed;
  int ops;
  PayloadKind strategy;
  uint32_t keyframe;
  uint64_t cache_bytes;  // Tiny budgets force constant eviction churn.
};

class CacheTwinPropertyTest : public ::testing::TestWithParam<TwinParam> {};

TEST_P(CacheTwinPropertyTest, CachedReadsMatchUncachedTwin) {
  const TwinParam param = GetParam();

  MemEnv env_a, env_b;
  LogicalClock clock_a, clock_b;
  DatabaseOptions options;
  options.storage.path = "/db";
  options.payload_strategy = param.strategy;
  options.delta_keyframe_interval = param.keyframe;

  options.storage.env = &env_a;
  options.clock = &clock_a;
  options.payload_cache_bytes = param.cache_bytes;
  options.latest_cache_entries = 64;
  auto cached_or = Database::Open(options);
  ASSERT_TRUE(cached_or.ok());
  auto cached = std::move(*cached_or);

  options.storage.env = &env_b;
  options.clock = &clock_b;
  options.payload_cache_bytes = 0;
  options.latest_cache_entries = 0;
  auto plain_or = Database::Open(options);
  ASSERT_TRUE(plain_or.ok());
  auto plain = std::move(*plain_or);

  auto type_a = cached->RegisterType("raw");
  auto type_b = plain->RegisterType("raw");
  ASSERT_TRUE(type_a.ok());
  ASSERT_TRUE(type_b.ok());
  ASSERT_EQ(*type_a, *type_b);

  Random rng(param.seed);
  std::vector<VersionId> live;      // Same ids in both databases.
  std::vector<ObjectId> live_oids;  // Deduplicated object ids.

  auto refresh_oids = [&]() {
    live_oids.clear();
    for (const VersionId& vid : live) {
      if (live_oids.empty() || !(live_oids.back() == vid.oid)) {
        live_oids.push_back(vid.oid);
      }
    }
  };
  auto remove_vid = [&](VersionId vid) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (*it == vid) {
        live.erase(it);
        break;
      }
    }
    refresh_oids();
  };
  auto remove_oid = [&](ObjectId oid) {
    for (auto it = live.begin(); it != live.end();) {
      it = (it->oid == oid) ? live.erase(it) : std::next(it);
    }
    refresh_oids();
  };

  bool in_txn = false;
  std::vector<VersionId> txn_live_snapshot;

  for (int op = 0; op < param.ops; ++op) {
    const int action = static_cast<int>(rng.Uniform(100));
    if (live.empty() || action < 15) {
      const std::string payload = rng.NextBytes(rng.Range(0, 400));
      auto va = cached->PnewRaw(*type_a, Slice(payload));
      auto vb = plain->PnewRaw(*type_b, Slice(payload));
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      ASSERT_EQ(*va, *vb);
      live.push_back(*va);
      refresh_oids();
    } else if (action < 35) {
      const VersionId base = live[rng.Uniform(live.size())];
      auto va = cached->NewVersionFrom(base);
      auto vb = plain->NewVersionFrom(base);
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      ASSERT_EQ(*va, *vb);
      live.push_back(*va);
      refresh_oids();
    } else if (action < 55) {
      const VersionId target = live[rng.Uniform(live.size())];
      const std::string payload = rng.NextBytes(rng.Range(0, 400));
      ASSERT_OK(cached->UpdateVersion(target, Slice(payload)));
      ASSERT_OK(plain->UpdateVersion(target, Slice(payload)));
    } else if (action < 63) {
      const VersionId target = live[rng.Uniform(live.size())];
      ASSERT_OK(cached->PdeleteVersion(target));
      ASSERT_OK(plain->PdeleteVersion(target));
      remove_vid(target);
    } else if (action < 68) {
      const ObjectId oid = live[rng.Uniform(live.size())].oid;
      ASSERT_OK(cached->PdeleteObject(oid));
      ASSERT_OK(plain->PdeleteObject(oid));
      remove_oid(oid);
    } else if (action < 85) {
      const VersionId target = live[rng.Uniform(live.size())];
      auto ba = cached->ReadVersion(target);
      auto bb = plain->ReadVersion(target);
      ASSERT_TRUE(ba.ok()) << ba.status();
      ASSERT_TRUE(bb.ok()) << bb.status();
      ASSERT_EQ(*ba, *bb) << "divergence at " << target;
    } else if (action < 95) {
      const ObjectId oid = live_oids[rng.Uniform(live_oids.size())];
      VersionId ra, rb;
      auto ba = cached->ReadLatest(oid, &ra);
      auto bb = plain->ReadLatest(oid, &rb);
      ASSERT_TRUE(ba.ok()) << ba.status();
      ASSERT_TRUE(bb.ok()) << bb.status();
      ASSERT_EQ(ra, rb);
      ASSERT_EQ(*ba, *bb) << "latest divergence at " << oid;
    } else if (!in_txn) {
      // Open a transaction on BOTH databases; a later action resolves it.
      ASSERT_OK(cached->Begin());
      ASSERT_OK(plain->Begin());
      in_txn = true;
      txn_live_snapshot = live;
    } else {
      // Resolve the open transaction, randomly aborting (which must roll
      // the cached database's caches back too).
      if (rng.OneIn(2)) {
        ASSERT_OK(cached->Commit());
        ASSERT_OK(plain->Commit());
      } else {
        ASSERT_OK(cached->Abort());
        ASSERT_OK(plain->Abort());
        live = txn_live_snapshot;
        refresh_oids();
      }
      in_txn = false;
    }
  }
  if (in_txn) {
    ASSERT_OK(cached->Commit());
    ASSERT_OK(plain->Commit());
  }

  // Full sweep: every surviving version must read byte-identically, and
  // every latest pointer must agree.
  for (const VersionId& vid : live) {
    auto ba = cached->ReadVersion(vid);
    auto bb = plain->ReadVersion(vid);
    ASSERT_TRUE(ba.ok()) << vid << ": " << ba.status();
    ASSERT_TRUE(bb.ok()) << vid << ": " << bb.status();
    EXPECT_EQ(*ba, *bb) << vid;
  }
  for (const ObjectId& oid : live_oids) {
    VersionId ra, rb;
    auto ba = cached->ReadLatest(oid, &ra);
    auto bb = plain->ReadLatest(oid, &rb);
    ASSERT_TRUE(ba.ok());
    ASSERT_TRUE(bb.ok());
    EXPECT_EQ(ra, rb) << oid;
    EXPECT_EQ(*ba, *bb) << oid;
  }
  // The cached run must actually have exercised the cache.
  const MetricsRegistry::Snapshot snap = cached->MetricsSnapshot();
  EXPECT_GT(snap.counter("payload_cache.hits") +
                snap.counter("payload_cache.misses"),
            0u);
  EXPECT_GT(snap.counter("latest_cache.hits") +
                snap.counter("latest_cache.misses"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheTwinPropertyTest,
    ::testing::Values(
        TwinParam{201, 800, PayloadKind::kFull, 16, 8 << 20},
        TwinParam{202, 800, PayloadKind::kDelta, 16, 8 << 20},
        TwinParam{203, 800, PayloadKind::kDelta, 4, 8 << 20},
        // Tiny budget: constant eviction; exercises re-materialization.
        TwinParam{204, 600, PayloadKind::kDelta, 4, 4096},
        TwinParam{205, 600, PayloadKind::kFull, 16, 4096}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             (info.param.strategy == PayloadKind::kFull ? "full" : "delta") +
             "_kf" + std::to_string(info.param.keyframe) + "_budget" +
             std::to_string(info.param.cache_bytes);
    });

}  // namespace
}  // namespace ode
