// Committed lint-violation fixture (never compiled): raw thread spawns
// outside the sanctioned pool sites, for rule R8. Only src/util/sweep.cpp
// and src/serve/server.cpp may construct std::thread; everything else must
// go through ParallelSweep, which joins every thread it starts.
#include <future>
#include <thread>

namespace cogradio {

void fixture_r8_spawn() {
  std::thread worker([] {});  // R8: raw std::thread outside the allowlist
  worker.detach();            // R8: detach abandons join accounting
  auto f = std::async(std::launch::async, [] {});  // R8: std::async
  f.wait();
}

}  // namespace cogradio
