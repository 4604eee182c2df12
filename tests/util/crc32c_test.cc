#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <string>

namespace ode {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(crc32c::Value("", 0), 0x00000000u);
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("world", 5));
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("hello", 4));
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t partial = crc32c::Value(data.data(), split);
    uint32_t full = crc32c::Extend(partial, data.data() + split,
                                   data.size() - split);
    EXPECT_EQ(full, crc32c::Value(data.data(), data.size())) << split;
  }
}

// The hardware path (when the CPU has one) must give the portable table
// code's value for every length the WAL produces and at every alignment,
// including across split Extend calls.  (Without the instruction both
// sides run the table code and the test is trivially green.)
TEST(Crc32cTest, HardwareMatchesPortable) {
  std::string buf(8192 + 8, '\0');
  uint32_t state = 0x12345678u;
  for (char& c : buf) {
    state = state * 1103515245u + 12345u;
    c = static_cast<char>(state >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    const char* data = buf.data() + align;
    for (size_t n = 0; n <= 8192; ++n) {
      ASSERT_EQ(crc32c::Extend(0, data, n),
                crc32c::ExtendPortable(0, data, n))
          << "len " << n << " align " << align;
    }
  }
  const char* data = buf.data() + 3;
  for (size_t split = 0; split <= 300; ++split) {
    const uint32_t head = crc32c::Extend(0x9e3779b9u, data, split);
    ASSERT_EQ(crc32c::Extend(head, data + split, 4096 - split),
              crc32c::ExtendPortable(0x9e3779b9u, data, 4096))
        << "split " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu,
                       crc32c::Value("abc", 3)}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
  }
}

TEST(Crc32cTest, MaskChangesValue) {
  const uint32_t crc = crc32c::Value("data", 4);
  EXPECT_NE(crc32c::Mask(crc), crc);
}

TEST(Crc32cTest, SingleBitFlipDetected) {
  std::string data(128, 'a');
  const uint32_t original = crc32c::Value(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 13) {
    std::string corrupted = data;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    EXPECT_NE(crc32c::Value(corrupted.data(), corrupted.size()), original);
  }
}

}  // namespace
}  // namespace ode
