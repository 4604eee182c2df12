#include "core/payload_cache.h"

namespace ode {

namespace {

/// Largest power of two <= 16 keeping at least `min_per_shard` of `budget`
/// in every shard.  An explicit request is rounded down to a power of two so
/// shard selection can mask instead of divide.
size_t PickShardCount(uint64_t budget, uint64_t min_per_shard,
                      size_t requested) {
  if (requested != 0) {
    size_t p = 1;
    while (p * 2 <= requested) p *= 2;
    return p;
  }
  size_t shards = 1;
  while (shards < 16 && budget / (shards * 2) >= min_per_shard) shards *= 2;
  return shards;
}

}  // namespace

template <typename Key, typename Value, typename Charge>
ShardedLru<Key, Value, Charge>::ShardedLru(uint64_t budget,
                                           MetricsRegistry* registry,
                                           std::string_view name,
                                           size_t shards)
    : budget_(budget), name_(name) {
  const size_t n = PickShardCount(budget, Charge::kMinShardBudget, shards);
  shard_budget_ = budget_ / n;
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  if (registry != nullptr) {
    hook_ = registry->AddPullHook(
        [this](MetricsRegistry::Snapshot* out) { Publish(out); });
  }
}

template <typename Key, typename Value, typename Charge>
ShardedLru<Key, Value, Charge>::~ShardedLru() = default;

template <typename Key, typename Value, typename Charge>
typename ShardedLru<Key, Value, Charge>::Shard&
ShardedLru<Key, Value, Charge>::ShardFor(const Key& key) {
  // Shard counts are powers of two, so selection is a mask (an integer
  // divide here is measurable on the cache-hit dereference path).
  return *shards_[std::hash<Key>()(key) & shard_mask_];
}

template <typename Key, typename Value, typename Charge>
bool ShardedLru<Key, Value, Charge>::Lookup(const Key& key, Value* out) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.counts.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->value;
  ++shard.counts.hits;
  return true;
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::Insert(const Key& key,
                                            const Value& value) {
  if (!enabled()) return;
  const uint64_t charge = Charge::Of(value);
  if (charge > shard_budget_) return;  // Would evict everything else.
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    Entry& entry = *it->second;
    shard.in_use -= Charge::Of(entry.value);
    entry.value = value;
    shard.in_use += charge;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (shard.in_epoch && !entry.uncommitted) {
      entry.uncommitted = true;
      shard.epoch_keys.push_back(key);
    }
  } else {
    shard.lru.push_front(Entry{key, value, shard.in_epoch});
    shard.map.emplace(key, shard.lru.begin());
    shard.in_use += charge;
    if (shard.in_epoch) shard.epoch_keys.push_back(key);
  }
  // Evict from the cold end; the new entry fits alone, so it survives.
  while (shard.in_use > shard_budget_ && !shard.lru.empty()) {
    RemoveEntry(shard, std::prev(shard.lru.end()));
    ++shard.counts.evictions;
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::RemoveEntry(
    Shard& shard, typename EntryList::iterator it) {
  shard.in_use -= Charge::Of(it->value);
  shard.map.erase(it->key);
  shard.lru.erase(it);
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::Erase(const Key& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return;
  RemoveEntry(shard, it->second);
  ++shard.counts.invalidations;
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::EraseIf(
    const std::function<bool(const Key&)>& pred) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      auto next = std::next(it);
      if (pred(it->key)) {
        RemoveEntry(shard, it);
        ++shard.counts.invalidations;
      }
      it = next;
    }
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.map.clear();
    shard.epoch_keys.clear();
    shard.in_use = 0;
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::BeginEpoch() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    shard.in_epoch = true;
    shard.epoch_keys.clear();
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::CommitEpoch() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const Key& key : shard.epoch_keys) {
      auto it = shard.map.find(key);
      if (it != shard.map.end()) it->second->uncommitted = false;
    }
    shard.epoch_keys.clear();
    shard.in_epoch = false;
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::AbortEpoch() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const Key& key : shard.epoch_keys) {
      auto it = shard.map.find(key);
      if (it != shard.map.end() && it->second->uncommitted) {
        RemoveEntry(shard, it->second);
        ++shard.counts.epoch_discards;
      }
    }
    shard.epoch_keys.clear();
    shard.in_epoch = false;
  }
}

template <typename Key, typename Value, typename Charge>
void ShardedLru<Key, Value, Charge>::Publish(
    MetricsRegistry::Snapshot* out) const {
  // Summing under each shard lock yields counts covering every operation
  // that completed before the snapshot began.
  Counts sum;
  for (const auto& shard_ptr : shards_) {
    MutexLock lock(shard_ptr->mu);
    const Counts& c = shard_ptr->counts;
    sum.hits += c.hits;
    sum.misses += c.misses;
    sum.evictions += c.evictions;
    sum.invalidations += c.invalidations;
    sum.epoch_discards += c.epoch_discards;
  }
  for (const auto& [field, value] :
       {std::pair<const char*, uint64_t>{".hits", sum.hits},
        {".misses", sum.misses},
        {".evictions", sum.evictions},
        {".invalidations", sum.invalidations},
        {".epoch_discards", sum.epoch_discards}}) {
    out->counters.emplace_back(name_ + field, value);
  }
}

template <typename Key, typename Value, typename Charge>
uint64_t ShardedLru<Key, Value, Charge>::charge_in_use() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    MutexLock lock(shard_ptr->mu);
    total += shard_ptr->in_use;
  }
  return total;
}

template <typename Key, typename Value, typename Charge>
size_t ShardedLru<Key, Value, Charge>::entries() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    MutexLock lock(shard_ptr->mu);
    total += shard_ptr->map.size();
  }
  return total;
}

template class ShardedLru<VersionId, std::string, PayloadCharge>;
template class ShardedLru<ObjectId, VersionNum, EntryCharge>;

}  // namespace ode
