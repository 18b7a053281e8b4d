#include "src/util/band_crew.h"

#include <algorithm>
#include <utility>

namespace smol {

namespace {

thread_local BandCrew* t_current = nullptr;
thread_local uint64_t t_jobs_posted = 0;

}  // namespace

/// One posted ForEachBand call. It lives on the owner's stack: the owner
/// delists it and waits until no helper is inside before returning.
struct BandCrew::Job {
  const std::function<void(int)>* fn = nullptr;
  int n = 0;
  std::atomic<int> next{0};  // band cursor; claims past n are no-ops
  int slots = 0;   // helpers that may still join (guarded by mutex_)
  int active = 0;  // helpers inside the job (guarded by mutex_)
};

BandCrew::BandCrew(std::function<void()> wake,
                   std::function<bool()> work_queued)
    : wake_(std::move(wake)), work_queued_(std::move(work_queued)) {}

BandCrew::Stats BandCrew::stats() const {
  Stats s;
  s.jobs = jobs_posted_.load(std::memory_order_relaxed);
  s.helper_bands = helper_bands_.load(std::memory_order_relaxed);
  return s;
}

int BandCrew::Width() const {
  if (work_queued_()) return 1;
  return 1 + idle_.load(std::memory_order_relaxed);
}

void BandCrew::Delist(Job* job) {
  auto it = std::find(jobs_.begin(), jobs_.end(), job);
  if (it == jobs_.end()) return;
  jobs_.erase(it);
  joinable_.store(static_cast<int>(jobs_.size()), std::memory_order_release);
}

void BandCrew::Run(int n, const std::function<void(int)>& fn, int helpers) {
  Job job;
  job.fn = &fn;
  job.n = n;
  job.slots = helpers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(&job);
    joinable_.store(static_cast<int>(jobs_.size()), std::memory_order_release);
  }
  jobs_posted_.fetch_add(1, std::memory_order_relaxed);
  ++t_jobs_posted;
  wake_();
  for (int b; (b = job.next.fetch_add(1, std::memory_order_relaxed)) < n;) {
    fn(b);
  }
  // Every band is claimed. Delisting under the lock stops new helpers from
  // joining; the ones inside finish their claimed band and leave, and their
  // writes happen-before this wait returns.
  std::unique_lock<std::mutex> lock(mutex_);
  Delist(&job);
  helpers_done_.wait(lock, [&] { return job.active == 0; });
}

void BandCrew::Help() {
  for (;;) {
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (job == nullptr && !jobs_.empty()) {
        Job* candidate = jobs_.front();
        if (candidate->next.load(std::memory_order_relaxed) >= candidate->n) {
          Delist(candidate);  // fully claimed: nothing left to help with
          continue;
        }
        job = candidate;
        if (--job->slots == 0) Delist(job);
        ++job->active;
      }
    }
    if (job == nullptr) return;
    bool leave = false;
    for (int b; (b = job->next.fetch_add(1, std::memory_order_relaxed)) <
                job->n;) {
      (*job->fn)(b);
      helper_bands_.fetch_add(1, std::memory_order_relaxed);
      if (work_queued_()) {
        leave = true;  // own work arrived: it waits at most this one band
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--job->active == 0) helpers_done_.notify_all();
    }
    if (leave) return;
  }
}

BandCrew::Scope::Scope(BandCrew* crew) : previous_(t_current) {
  t_current = crew;
}

BandCrew::Scope::~Scope() { t_current = previous_; }

BandCrew* BandCrew::Current() { return t_current; }

uint64_t BandCrew::JobsPostedByThisThread() { return t_jobs_posted; }

int BandCount(int rows, int min_rows) {
  min_rows = std::max(min_rows, 1);
  if (t_current == nullptr || rows < 2 * min_rows || t_current->Width() <= 1) {
    return 1;
  }
  return rows / min_rows;
}

void ForEachBand(int n, const std::function<void(int)>& fn) {
  BandCrew* crew = t_current;
  const int helpers =
      crew != nullptr && n > 1 ? std::min(crew->Width(), n) - 1 : 0;
  if (helpers <= 0) {
    for (int b = 0; b < n; ++b) fn(b);
    return;
  }
  crew->Run(n, fn, helpers);
}

}  // namespace smol
