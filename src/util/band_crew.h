// Row-band crew: idle peer threads help run one image's row loop.
//
// The serving runtime's producers each take one request at a time. Under
// calm load most of them sleep on an empty admission queue while one decodes
// and preprocesses alone. A BandCrew lets that one split its row loops into
// bands that the sleeping peers claim (§6.1's aim: the CPU stage should not
// leave a request waiting while cores idle):
//
//   * ForEachBand(n, fn) runs fn(0..n-1) and always runs bands on the
//     calling thread. When the thread's current crew has idle peers and no
//     queued work, it posts the job first; the peers wake and claim further
//     bands from the same atomic cursor. It returns once every band has run.
//   * A helper checks for queued work after each band and leaves as soon as
//     some appears, so new work waits at most one band. Under backlog
//     nothing is split at all: every producer runs whole images.
//   * With no crew installed, with queued work, or with no idle peer, every
//     band runs inline on the caller. Serial execution is the same loop.
//
// Peers park wherever they wait for their own work; PopOrHelp wires a crew
// to an MpmcQueue (the admission queue in the Server): a peer waiting on an
// empty queue counts as idle and helps posted jobs until an item arrives.
#ifndef SMOL_UTIL_BAND_CREW_H_
#define SMOL_UTIL_BAND_CREW_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "src/util/mpmc_queue.h"

namespace smol {

/// \brief A set of peer threads that help each other's row-band loops.
class BandCrew {
 public:
  /// \p wake rouses the parked peers after a job is posted (e.g.
  /// MpmcQueue::Wake); \p work_queued reports whether the peers have their
  /// own work waiting — then no job is split and helpers leave.
  BandCrew(std::function<void()> wake, std::function<bool()> work_queued);

  BandCrew(const BandCrew&) = delete;
  BandCrew& operator=(const BandCrew&) = delete;

  /// Cumulative counters (observability only).
  struct Stats {
    uint64_t jobs = 0;          ///< ForEachBand calls posted to the crew
    uint64_t helper_bands = 0;  ///< bands run by helpers, not by owners
  };
  Stats stats() const;

  /// True while a posted job has room for another helper: what a parked
  /// peer waits for besides its own work.
  bool HasJob() const { return joinable_.load(std::memory_order_acquire) > 0; }

  /// Peers currently parked (counted by IdleScope).
  int idle() const { return idle_.load(std::memory_order_relaxed); }

  /// How many threads a job posted now could use: 1 + idle peers, or 1 while
  /// work is queued.
  int Width() const;

  /// Helper side: runs bands of posted jobs until none has room or work is
  /// queued (checked after every band).
  void Help();

  /// Counts the calling peer as idle (available to help) for its lifetime.
  class IdleScope {
   public:
    explicit IdleScope(BandCrew& crew) : crew_(crew) {
      crew_.idle_.fetch_add(1, std::memory_order_relaxed);
    }
    ~IdleScope() { crew_.idle_.fetch_sub(1, std::memory_order_relaxed); }
    IdleScope(const IdleScope&) = delete;
    IdleScope& operator=(const IdleScope&) = delete;

   private:
    BandCrew& crew_;
  };

  /// Installs \p crew (may be null) as the calling thread's current crew for
  /// the scope's lifetime; ForEachBand and BandCount use it.
  class Scope {
   public:
    explicit Scope(BandCrew* crew);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BandCrew* previous_;
  };

  /// The calling thread's current crew (null when none is installed).
  static BandCrew* Current();

  /// Jobs the calling thread has posted to any crew, ever; a caller diffs it
  /// around a unit of work to learn whether that work was split.
  static uint64_t JobsPostedByThisThread();

 private:
  struct Job;
  friend void ForEachBand(int n, const std::function<void(int)>& fn);

  /// Owner side: posts a job of \p n bands with room for \p helpers peers,
  /// runs bands until none is left, and waits for the helpers' bands.
  void Run(int n, const std::function<void(int)>& fn, int helpers);
  void Delist(Job* job);  // requires mutex_

  const std::function<void()> wake_;
  const std::function<bool()> work_queued_;
  std::mutex mutex_;
  std::condition_variable helpers_done_;
  std::vector<Job*> jobs_;  // joinable jobs, guarded by mutex_
  std::atomic<int> joinable_{0};  // jobs_.size(), readable without the lock
  std::atomic<int> idle_{0};
  std::atomic<uint64_t> jobs_posted_{0};
  std::atomic<uint64_t> helper_bands_{0};
};

/// How many bands to cut a loop over \p rows rows into, each of at least
/// \p min_rows rows: 1 whenever the calling thread's crew could not split
/// it now (no crew, queued work, or no idle peer).
int BandCount(int rows, int min_rows);

/// Runs fn(b) for every b in [0, n), each exactly once, and returns when all
/// have run. The caller always runs bands itself; idle peers of its current
/// crew may run others concurrently, so fn must be safe to call from several
/// threads at once for distinct bands.
void ForEachBand(int n, const std::function<void(int)>& fn);

/// Pops the next item of \p queue. While the queue is empty the calling peer
/// counts as idle in \p crew and helps its posted jobs. Returns std::nullopt
/// once the queue is closed and drained; a null crew is a plain Pop().
template <typename T>
std::optional<T> PopOrHelp(MpmcQueue<T>& queue, BandCrew* crew) {
  if (crew == nullptr) return queue.Pop();
  for (;;) {
    std::optional<T> item;
    {
      BandCrew::IdleScope idle(*crew);
      item = queue.PopOr([crew] { return crew->HasJob(); });
    }
    if (item) return item;
    // A closed queue takes no pushes, so closed and empty stays drained.
    if (queue.closed() && queue.size() == 0) return std::nullopt;
    crew->Help();
  }
}

}  // namespace smol

#endif  // SMOL_UTIL_BAND_CREW_H_
