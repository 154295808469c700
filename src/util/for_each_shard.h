// for_each_shard — the one fork/join runner for sharded host-side scans.
//
// Every sharded pass in the repo (the multi-failure census, the exposure
// census, the rebuild populate) splits its input into `shards` disjoint
// pieces whose outputs land in per-shard slots, so the result never depends
// on thread timing.  This runner owns the threads: shard 0 runs on the
// calling thread, shards 1..n-1 on workers, and every thread is joined
// before the first exception any shard threw is rethrown — a throwing
// shard can neither leak a joinable std::thread (std::terminate) nor let
// the caller unwind while other shards still write into its locals.
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace car::util {

/// Run body(shard) for every shard in [0, shards): shard 0 on the calling
/// thread, the others on worker threads.  Returns once every shard has
/// finished; rethrows the first exception a shard threw (later ones are
/// dropped).  If a worker thread cannot be started, the workers already
/// running are joined and the std::system_error propagates.  shards == 0
/// runs nothing.
template <typename Body>
void for_each_shard(std::size_t shards, const Body& body) {
  if (shards == 0) return;
  Mutex error_mu;
  std::exception_ptr error;
  auto run = [&](std::size_t shard) {
    try {
      body(shard);
    } catch (...) {
      const MutexLock lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  try {
    for (std::size_t shard = 1; shard < shards; ++shard) {
      workers.emplace_back(run, shard);
    }
  } catch (...) {
    for (auto& worker : workers) worker.join();
    throw;
  }
  run(0);
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace car::util
