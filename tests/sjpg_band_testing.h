// Test support: checks that a banded SJPG decode (idle peers help) is
// bit-identical to the one-band decode, for crews of 1 to 4 threads.
#ifndef SMOL_TESTS_SJPG_BAND_TESTING_H_
#define SMOL_TESTS_SJPG_BAND_TESTING_H_

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/codec/sjpg.h"
#include "src/util/band_crew.h"
#include "tests/band_crew_testing.h"

namespace smol::testing {

/// Holds crews of 1 to 4 threads: the calling thread plus 0 to 3 parked
/// helpers, kept across checks so each check costs no thread start.
class SjpgBandChecker {
 public:
  SjpgBandChecker() {
    for (int helpers = 0; helpers <= 3; ++helpers) {
      crews_.push_back(std::make_unique<ParkedPeers>(helpers));
    }
  }

  /// Decodes \p bytes with \p opts as one band (no crew), then under each
  /// crew with its helpers parked, and expects the same status, the same
  /// SjpgDecodeStats and, on success, the same pixels.
  void Check(const std::vector<uint8_t>& bytes, const SjpgDecodeOptions& opts,
             const std::string& what) {
    ASSERT_EQ(BandCrew::Current(), nullptr);
    Image want;
    SjpgDecodeStats want_stats;
    const Status want_status = SjpgDecodeInto(bytes, opts, &want, &want_stats);
    for (size_t c = 0; c < crews_.size(); ++c) {
      ParkedPeers& peers = *crews_[c];
      ASSERT_TRUE(peers.WaitParked());
      BandCrew::Scope scope(&peers.crew);
      Image got;
      SjpgDecodeStats got_stats;
      const Status got_status = SjpgDecodeInto(bytes, opts, &got, &got_stats);
      const std::string where = what + ", crew of " + std::to_string(c + 1);
      EXPECT_EQ(got_status, want_status)
          << where << ": " << got_status.ToString() << " vs "
          << want_status.ToString();
      EXPECT_EQ(got_stats.entropy_blocks, want_stats.entropy_blocks) << where;
      EXPECT_EQ(got_stats.idct_blocks, want_stats.idct_blocks) << where;
      EXPECT_EQ(got_stats.mcu_rows_decoded, want_stats.mcu_rows_decoded)
          << where;
      if (!want_status.ok() || !got_status.ok()) continue;
      ASSERT_EQ(got.width(), want.width()) << where;
      ASSERT_EQ(got.height(), want.height()) << where;
      ASSERT_EQ(got.channels(), want.channels()) << where;
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0)
          << where;
    }
  }

  /// Jobs posted to the crews with helpers: > 0 once a check really split.
  uint64_t split_jobs() const {
    uint64_t jobs = 0;
    for (const auto& peers : crews_) jobs += peers->crew.stats().jobs;
    return jobs;
  }

 private:
  std::vector<std::unique_ptr<ParkedPeers>> crews_;
};

}  // namespace smol::testing

#endif  // SMOL_TESTS_SJPG_BAND_TESTING_H_
