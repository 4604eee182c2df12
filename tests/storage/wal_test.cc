#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

std::string PageWith(const std::string& text) {
  std::string page(kPageSize, '\0');
  std::memcpy(page.data(), text.data(), text.size());
  return page;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto wal = Wal::Open(&env_, "/wal");
    ASSERT_TRUE(wal.ok());
    wal_ = std::move(*wal);
    auto disk = DiskManager::Open(&env_, "/data");
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
  }

  // One record per AppendBlob: the log a sequence of single-record commits
  // writes, so records interleave however a test needs.
  Status AppendBegin(uint64_t txn_id) {
    std::string blob;
    Wal::EncodeBegin(txn_id, &blob);
    return wal_->AppendBlob(blob, 1);
  }
  Status AppendPageImage(uint64_t txn_id, PageId page_id, const char* image) {
    std::string blob;
    Wal::EncodePageImage(txn_id, page_id, image, &blob);
    return wal_->AppendBlob(blob, 1);
  }
  Status AppendCommit(uint64_t txn_id) {
    std::string blob;
    Wal::EncodeCommit(txn_id, &blob);
    return wal_->AppendBlob(blob, 1);
  }

  MemEnv env_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<DiskManager> disk_;
};

TEST_F(WalTest, AppendAndReadAll) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 7, PageWith("page seven").data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[0].txn_id, 1u);
  EXPECT_EQ(records[1].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[1].page_id, 7u);
  EXPECT_EQ(records[1].image.substr(0, 10), "page seven");
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
}

TEST_F(WalTest, RecoverAppliesCommittedTxn) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 3, PageWith("committed").data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 9), "committed");
}

TEST_F(WalTest, RecoverSkipsUncommittedTxn) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 3, PageWith("never committed").data()));
  // No commit record: the crash happened mid-transaction.
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 0u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 0u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_NE(std::string(buf, 5), "never");
}

TEST_F(WalTest, LaterImageOfSamePageWins) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 3, PageWith("first").data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(AppendBegin(2));
  ASSERT_OK(AppendPageImage(2, 3, PageWith("second").data()));
  ASSERT_OK(AppendCommit(2));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 2u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 6), "second");
}

TEST_F(WalTest, TornTailIsDropped) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 2, PageWith("good").data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Sync());
  // Simulate a torn append: write garbage half-record at the end.
  ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal"));
  ASSERT_OK(file->Append(Slice("\x50\x00\x00\x00garbage")));

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
}

TEST_F(WalTest, CorruptedRecordStopsScan) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(AppendBegin(2));
  ASSERT_OK(AppendCommit(2));
  // Flip a byte inside the second record pair's payload.
  ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal"));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  std::string scratch;
  Slice content;
  ASSERT_OK(file->Read(0, size, &scratch, &content));
  std::string mutated = content.ToString();
  mutated[mutated.size() - 1] ^= 0x40;
  ASSERT_OK(file->Write(0, Slice(mutated)));

  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  EXPECT_EQ(records.size(), 3u);  // Fourth record fails its CRC.
}

TEST_F(WalTest, ZeroSuppressionShrinksRecordsLosslessly) {
  // A nearly-empty page logs small; a full page logs big; both replay to
  // their exact original contents.
  std::string sparse(kPageSize, '\0');
  sparse.replace(0, 5, "head!");
  std::string dense(kPageSize, 'x');
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 1, sparse.data()));
  const uint64_t after_sparse = wal_->bytes_appended();
  ASSERT_OK(AppendPageImage(1, 2, dense.data()));
  const uint64_t after_dense = wal_->bytes_appended();
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Sync());
  EXPECT_LT(after_sparse, 200u);  // ~5 bytes of payload + framing.
  EXPECT_GT(after_dense - after_sparse, kPageSize);  // Full image.

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.pages_replayed, 2u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(1, buf));
  EXPECT_EQ(std::memcmp(buf, sparse.data(), kPageSize), 0);
  ASSERT_OK(disk_->ReadPage(2, buf));
  EXPECT_EQ(std::memcmp(buf, dense.data(), kPageSize), 0);
}

TEST_F(WalTest, AllZeroPageImageRoundTrips) {
  std::string zeros(kPageSize, '\0');
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendPageImage(1, 3, zeros.data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].image.size(), kPageSize);
  EXPECT_EQ(records[1].image, zeros);
}

TEST_F(WalTest, TruncateEmptiesLog) {
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Truncate());
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, EmptyLogRecoversCleanly) {
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.records_scanned, 0u);
  EXPECT_EQ(stats.pages_replayed, 0u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST_F(WalTest, InterleavedTransactionsRecoverIndependently) {
  // T1 commits, T2 does not; their page images interleave.
  ASSERT_OK(AppendBegin(1));
  ASSERT_OK(AppendBegin(2));
  ASSERT_OK(AppendPageImage(2, 5, PageWith("t2 page").data()));
  ASSERT_OK(AppendPageImage(1, 4, PageWith("t1 page").data()));
  ASSERT_OK(AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(4, buf));
  EXPECT_EQ(std::string(buf, 7), "t1 page");
  ASSERT_OK(disk_->ReadPage(5, buf));
  EXPECT_NE(std::string(buf, 7), "t2 page");
}

}  // namespace
}  // namespace ode
