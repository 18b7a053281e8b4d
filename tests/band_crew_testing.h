// Test and bench support: a BandCrew whose helpers are threads parked on an
// empty queue, the way the Server's producers park on admission.
#ifndef SMOL_TESTS_BAND_CREW_TESTING_H_
#define SMOL_TESTS_BAND_CREW_TESTING_H_

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/band_crew.h"
#include "src/util/mpmc_queue.h"

namespace smol::testing {

/// A crew of \p helpers parked peers; the thread that installs it
/// (BandCrew::Scope) is the owner. Items pushed to `lot` are the peers' own
/// work: a peer that pops one drops it. Setting `queued` also reads as
/// queued work.
class ParkedPeers {
 public:
  explicit ParkedPeers(int helpers)
      : crew([this] { lot.Wake(); },
             [this] {
               return queued.load(std::memory_order_relaxed) ||
                      lot.size() > 0;
             }) {
    for (int i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] {
        while (PopOrHelp(lot, &crew)) {
        }
      });
    }
  }
  ~ParkedPeers() { Stop(); }

  ParkedPeers(const ParkedPeers&) = delete;
  ParkedPeers& operator=(const ParkedPeers&) = delete;

  /// Waits (up to 10 s) until every helper is parked idle; true if they are.
  bool WaitParked() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (crew.idle() < static_cast<int>(threads_.size())) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// Closes the lot and joins the helpers (idempotent).
  void Stop() {
    lot.Close();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  MpmcQueue<int> lot{64};
  std::atomic<bool> queued{false};
  BandCrew crew;

 private:
  std::vector<std::thread> threads_;
};

}  // namespace smol::testing

#endif  // SMOL_TESTS_BAND_CREW_TESTING_H_
