#include "sim/backoff.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace cogradio {

BackoffParams backoff_params_for(int n) {
  assert(n >= 1);
  const int log_n =
      std::max(1, static_cast<int>(std::ceil(std::log2(static_cast<double>(std::max(2, n))))));
  BackoffParams p;
  p.phase_length = log_n + 1;
  // Theta(log^2 n) with a comfortable constant so that emulation failures
  // are negligible at the scales the simulator runs at.
  p.budget = static_cast<Slot>(8) * p.phase_length * p.phase_length;
  return p;
}

BackoffOutcome decay_backoff(int num_contenders, const BackoffParams& params,
                             Rng& rng) {
  assert(num_contenders >= 1);
  BackoffOutcome out;

  // A single contender broadcasts alone in the first micro-slot (p = 1).
  if (num_contenders == 1) {
    out.resolved = true;
    out.winner = 0;
    out.micro_slots = 1;
    return out;
  }

  // Simulate micro-slots literally. In each micro-slot every contender
  // broadcasts with probability 2^-(j mod L); a node that listens while
  // exactly one other broadcasts hears it and aborts, so resolution happens
  // at the first lone broadcast. Until then no contender has heard
  // anything, so all of them stay in: each draws its coin, in index order,
  // and only the talker count and the first talker matter. Nothing is
  // allocated, since Network::step calls this per contended channel.
  for (Slot t = 0; t < params.budget; ++t) {
    const int phase_pos = static_cast<int>(t % params.phase_length);
    const double p = std::ldexp(1.0, -phase_pos);  // 2^-phase_pos
    int talkers = 0, first = 0;
    for (int node = 0; node < num_contenders; ++node)
      if (rng.chance(p) && talkers++ == 0) first = node;
    if (talkers == 1) {
      out.resolved = true;
      out.winner = first;
      out.micro_slots = t + 1;
      return out;
    }
    // >= 2 talkers collide (nothing heard), 0 talkers is silence; either
    // way no node aborts and the decay continues.
  }
  out.micro_slots = params.budget;
  return out;
}

BackoffOutcome cd_split_backoff(int num_contenders, Slot budget, Rng& rng) {
  assert(num_contenders >= 1);
  BackoffOutcome out;
  if (num_contenders == 1) {
    out.resolved = true;
    out.winner = 0;
    out.micro_slots = 1;
    return out;
  }

  std::vector<int> active(static_cast<std::size_t>(num_contenders));
  for (int i = 0; i < num_contenders; ++i) active[static_cast<std::size_t>(i)] = i;

  std::vector<int> talkers;
  for (Slot t = 0; t < budget; ++t) {
    talkers.clear();
    for (int node : active)
      if (rng.chance(0.5)) talkers.push_back(node);
    if (talkers.size() == 1) {
      out.resolved = true;
      out.winner = talkers.front();
      out.micro_slots = t + 1;
      return out;
    }
    if (talkers.size() >= 2) {
      // Collision heard by everyone: the transmitters carry on, the
      // listeners withdraw (classic tree splitting). Never empties the
      // active set, since the talkers themselves survive.
      active = talkers;
    }
    // Silence: nobody learns anything; the active set stays as is.
  }
  out.micro_slots = budget;
  return out;
}

}  // namespace cogradio
