#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/database.h"
#include "storage/env.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

// Every knob's documented legal range, checked by DatabaseOptions::Validate
// and enforced at Database::Open (InvalidArgument naming the field, instead
// of clamping or surprise behavior deep in the stack).

DatabaseOptions BaseOptions(MemEnv* env) {
  DatabaseOptions options;
  options.storage.env = env;
  options.storage.path = "/db";
  return options;
}

void ExpectInvalid(const DatabaseOptions& options, const std::string& field) {
  Status s = options.Validate();
  ASSERT_FALSE(s.ok()) << "expected a violation for " << field;
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
  EXPECT_NE(s.ToString().find(field), std::string::npos)
      << "violation should name '" << field << "': " << s;
}

TEST(OptionsValidateTest, DefaultsAreValid) {
  MemEnv env;
  EXPECT_OK(BaseOptions(&env).Validate());
}

TEST(OptionsValidateTest, BufferPoolPagesMustBePositive) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.storage.buffer_pool_pages = 0;
  ExpectInvalid(options, "buffer_pool_pages");
}

TEST(OptionsValidateTest, KeyframeIntervalMustBePositive) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.delta_keyframe_interval = 0;
  ExpectInvalid(options, "delta_keyframe_interval");
}

TEST(OptionsValidateTest, DeltaRatioMustBeInUnitInterval) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);

  options.delta_max_ratio = 0.0;
  ExpectInvalid(options, "delta_max_ratio");

  options.delta_max_ratio = -0.5;
  ExpectInvalid(options, "delta_max_ratio");

  options.delta_max_ratio = 1.5;
  ExpectInvalid(options, "delta_max_ratio");

  options.delta_max_ratio = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(options, "delta_max_ratio");

  options.delta_max_ratio = 1.0;  // Inclusive upper bound.
  EXPECT_OK(options.Validate());
}

TEST(OptionsValidateTest, SamplingKnobsMustBeZeroOrPowerOfTwo) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.metrics_sample_every = 3;
  ExpectInvalid(options, "metrics_sample_every");

  options = BaseOptions(&env);
  options.trace_sample_every = 12;
  ExpectInvalid(options, "trace_sample_every");

  options = BaseOptions(&env);
  options.metrics_sample_every = 0;
  options.trace_sample_every = 1;
  EXPECT_OK(options.Validate());
}

TEST(OptionsValidateTest, WriteLatchStripesMustBePowerOfTwo) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.storage.write_latch_stripes = 0;
  ExpectInvalid(options, "write_latch_stripes");

  options.storage.write_latch_stripes = 3;
  ExpectInvalid(options, "write_latch_stripes");

  // 1 (a single global write latch) and any power of two are legal.
  options.storage.write_latch_stripes = 1;
  EXPECT_OK(options.Validate());
  options.storage.write_latch_stripes = 256;
  EXPECT_OK(options.Validate());
}

TEST(OptionsValidateTest, GroupCommitKnobsHaveDocumentedRanges) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.storage.group_commit_max_batch = 0;
  ExpectInvalid(options, "group_commit_max_batch");

  options = BaseOptions(&env);
  options.storage.group_commit_max_wait_us = 2'000'000;  // > one second.
  ExpectInvalid(options, "group_commit_max_wait_us");

  // Zero linger (pure opportunistic batching) is legal, as is a second.
  options = BaseOptions(&env);
  options.storage.group_commit_max_wait_us = 0;
  EXPECT_OK(options.Validate());
  options.storage.group_commit_max_wait_us = 1'000'000;
  options.storage.group_commit_max_batch = 1;
  options.storage.commit_mode = CommitMode::kAsync;
  EXPECT_OK(options.Validate());
}

TEST(OptionsValidateTest, TraceBufferMustHoldAtLeastOneEvent) {
  // Spans are journal records, so the journal's ring is the trace buffer.
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.event_log_buffer_events = 0;
  ExpectInvalid(options, "event_log_buffer_events");
}

TEST(OptionsValidateTest, OpenRefusesInvalidOptionsBeforeTouchingStorage) {
  MemEnv env;
  DatabaseOptions options = BaseOptions(&env);
  options.delta_keyframe_interval = 0;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status();
  // Validation fires before storage is created: nothing was written.
  EXPECT_FALSE(env.FileExists("/db/data.odb"));
}

}  // namespace
}  // namespace ode
