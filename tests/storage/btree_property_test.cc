#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "storage/btree.h"
#include "storage/storage_engine.h"
#include "tests/testing/util.h"
#include "util/random.h"

namespace ode {
namespace {

/// Parameters for one randomized run: (seed, operation count, key space).
struct PropertyParam {
  uint64_t seed;
  int ops;
  int key_space;
};

/// Differential test: random Put/Delete/Get/scan sequences checked against a
/// std::map reference model.
class BTreePropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(BTreePropertyTest, MatchesReferenceModel) {
  const PropertyParam param = GetParam();
  MemEnv env;
  StorageOptions options;
  options.env = &env;
  options.path = "/db";
  auto engine_or = StorageEngine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(*engine_or);

  Random rng(param.seed);
  std::map<std::string, std::string> model;

  auto random_key = [&] {
    return "k" + std::to_string(rng.Uniform(param.key_space));
  };

  for (int op = 0; op < param.ops; ++op) {
    ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      const int action = static_cast<int>(rng.Uniform(10));
      if (action < 5) {  // 50% put
        std::string key = random_key();
        std::string value = rng.NextBytes(rng.Range(0, 200));
        ODE_RETURN_IF_ERROR(tree->Put(Slice(key), Slice(value)));
        model[key] = value;
      } else if (action < 8) {  // 30% delete
        std::string key = random_key();
        Status s = tree->Delete(Slice(key));
        if (model.count(key) > 0) {
          EXPECT_TRUE(s.ok()) << s;
          model.erase(key);
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
      } else {  // 20% point lookup
        std::string key = random_key();
        auto v = tree->Get(Slice(key));
        if (model.count(key) > 0) {
          EXPECT_TRUE(v.ok());
          if (v.ok()) {
            EXPECT_EQ(*v, model[key]);
          }
        } else {
          EXPECT_TRUE(v.status().IsNotFound());
        }
      }
      return Status::OK();
    }));
  }

  // Final full-scan comparison: same entries, same order.
  ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    auto it = tree->NewIterator();
    auto model_it = model.begin();
    for (it.SeekToFirst(); it.Valid(); it.Next(), ++model_it) {
      if (model_it == model.end()) {
        ADD_FAILURE() << "tree has extra key " << it.key();
        break;
      }
      EXPECT_EQ(it.key(), model_it->first);
      EXPECT_EQ(it.value(), model_it->second);
    }
    EXPECT_EQ(model_it, model.end());
    // And in reverse.
    auto rit = model.rbegin();
    for (it.SeekToLast(); it.Valid(); it.Prev(), ++rit) {
      if (rit == model.rend()) {
        ADD_FAILURE() << "reverse scan has extra key " << it.key();
        break;
      }
      EXPECT_EQ(it.key(), rit->first);
    }
    return it.status();
  }));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(PropertyParam{1, 1500, 100},     // Hot keys, churn.
                      PropertyParam{2, 1500, 10000},   // Sparse keys.
                      PropertyParam{3, 3000, 500},     // Mixed.
                      PropertyParam{4, 800, 10},       // Tiny key space.
                      PropertyParam{5, 2000, 2000}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_ops" +
             std::to_string(info.param.ops) + "_keys" +
             std::to_string(info.param.key_space);
    });

/// Runs BTree::CheckNode over every B+tree node page of the database.
Status CheckAllNodes(PageIO& io, int* nodes) {
  auto pages = io.PageCount();
  if (!pages.ok()) return pages.status();
  *nodes = 0;
  for (PageId pid = 1; pid < *pages; ++pid) {
    auto handle = io.Fetch(pid);
    if (!handle.ok()) return handle.status();
    const auto type = static_cast<PageType>(handle->data()[0]);
    if (type != PageType::kBTreeLeaf && type != PageType::kBTreeInternal) {
      continue;
    }
    ++*nodes;
    Status s = BTree::CheckNode(handle->data());
    if (!s.ok()) {
      return Status::Corruption("page " + std::to_string(pid) + ": " +
                                s.ToString());
    }
  }
  return Status::OK();
}

/// In-place node edits against the model: inserts, same-key replaces with
/// shorter and longer values, and deletes interleave over a key space large
/// enough for several leaves, so nodes fragment, compact, and split from
/// fragmented pages.  After every transaction each node must still pass
/// CheckNode (in particular, its fragmented count must equal its dead
/// bytes), and every lookup must agree with the model.
TEST(BTreeInPlacePropertyTest, ReplacesDeletesAndSplitsMatchModel) {
  MemEnv env;
  StorageOptions options;
  options.env = &env;
  options.path = "/db";
  auto engine_or = StorageEngine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(*engine_or);

  Random rng(2024);
  std::map<std::string, std::string> model;
  int max_nodes = 0;
  for (int batch = 0; batch < 120; ++batch) {
    ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      for (int op = 0; op < 25; ++op) {
        const std::string key = "key" + std::to_string(rng.Uniform(400));
        const int action = static_cast<int>(rng.Uniform(10));
        auto it = model.find(key);
        if (action < 3 && it != model.end()) {
          ODE_RETURN_IF_ERROR(tree->Delete(Slice(key)));
          model.erase(it);
          continue;
        }
        size_t len = rng.Range(0, 300);
        if (it != model.end()) {
          // Replace: alternately much shorter and much longer.
          len = (action % 2 == 0) ? it->second.size() / 3
                                  : it->second.size() + rng.Range(1, 400);
          len = std::min<size_t>(len, 1500);
        }
        const std::string value = rng.NextBytes(len);
        ODE_RETURN_IF_ERROR(tree->Put(Slice(key), Slice(value)));
        model[key] = value;
      }
      int nodes = 0;
      ODE_RETURN_IF_ERROR(CheckAllNodes(txn, &nodes));
      max_nodes = std::max(max_nodes, nodes);
      for (const auto& [key, value] : model) {
        auto got = tree->Get(Slice(key));
        if (!got.ok()) return got.status();
        if (*got != value) return Status::Internal("value mismatch at " + key);
      }
      return Status::OK();
    }));
  }
  EXPECT_GT(max_nodes, 10) << "too few nodes to exercise splits";

  ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    auto it = tree->NewIterator();
    auto model_it = model.begin();
    for (it.SeekToFirst(); it.Valid(); it.Next(), ++model_it) {
      if (model_it == model.end()) return Status::Internal("extra key");
      EXPECT_EQ(it.key(), model_it->first);
      EXPECT_EQ(it.value(), model_it->second);
    }
    EXPECT_EQ(model_it, model.end());
    return it.status();
  }));
}

/// Seek/SeekForPrev consistency against the model on a static tree.
TEST(BTreeSeekPropertyTest, SeekMatchesModelBounds) {
  MemEnv env;
  StorageOptions options;
  options.env = &env;
  options.path = "/db";
  auto engine_or = StorageEngine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(*engine_or);

  Random rng(99);
  std::map<std::string, std::string> model;
  ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    for (int i = 0; i < 800; ++i) {
      std::string key = rng.NextString(rng.Range(1, 12));
      std::string value = std::to_string(i);
      ODE_RETURN_IF_ERROR(tree->Put(Slice(key), Slice(value)));
      model[key] = value;
    }
    for (int probe = 0; probe < 500; ++probe) {
      std::string target = rng.NextString(rng.Range(1, 12));
      auto it = tree->NewIterator();
      it.Seek(Slice(target));
      auto lb = model.lower_bound(target);
      if (lb == model.end()) {
        EXPECT_FALSE(it.Valid()) << "target=" << target;
      } else {
        if (!it.Valid()) return Status::Internal("invalid iterator at " + target);
        EXPECT_EQ(it.key(), lb->first);
      }
      it.SeekForPrev(Slice(target));
      auto ub = model.upper_bound(target);
      if (ub == model.begin()) {
        EXPECT_FALSE(it.Valid()) << "target=" << target;
      } else {
        --ub;
        if (!it.Valid()) return Status::Internal("invalid iterator at " + target);
        EXPECT_EQ(it.key(), ub->first);
      }
    }
    return Status::OK();
  }));
}

}  // namespace
}  // namespace ode
