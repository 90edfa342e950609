// Primary-user spectrum dynamics: a physically-motivated dynamic channel
// assignment (Section 1's motivating scenario — secondary users exploiting
// leftover spectrum in licensed bands, e.g. TV white space).
//
// Each non-reserved channel carries a primary user modelled as a two-state
// Markov chain (busy/free) advanced once per slot, so availability is
// *temporally correlated* — unlike DynamicAssignment's i.i.d. re-draws.
// Each secondary node owns a contiguous hardware band of `band` candidate
// channels; every slot its c-channel set is
//
//     k reserved channels  (always free: the regulatory common channels
//                           that realize the pairwise-overlap guarantee)
//   + (c - k) channels from its band, preferring currently free ones and
//     falling back to busy ones when the band is congested (a mispredicted
//     spectrum hole — harmless here because the model only defines channel
//     *sets*, and the k-overlap invariant never depends on the fill).
//
// Every pair of nodes overlaps on the k reserved channels in every slot,
// so the paper's model invariant holds and CogCast's dynamic-model
// guarantee (Section 7) applies verbatim. Experiment E20 sweeps the
// primary-user duty cycle and shows CogCast's completion time does not
// degrade with load.
#pragma once

#include <vector>

#include "sim/assignment.h"

namespace cogradio {

struct SpectrumParams {
  int band = 0;             // candidate channels per node (>= c - k)
  double p_free_to_busy = 0.1;  // per-slot primary-user arrival
  double p_busy_to_free = 0.3;  // per-slot primary-user departure
};

// The label table (sim/assignment.h's flat format) is rebuilt in place
// each slot that the chain advances.
class MarkovSpectrumAssignment : public TableAssignment {
 public:
  MarkovSpectrumAssignment(int n, int c, int k, SpectrumParams spectrum,
                           Rng rng);

  bool is_dynamic() const override { return true; }
  void begin_slot(Slot slot) override;

  // Diagnostics: stationary busy probability of the Markov chain and the
  // busy fraction actually observed this slot.
  double stationary_busy() const;
  double busy_fraction() const;
  // Fraction of the node's non-reserved picks that fell back to busy
  // channels this slot (mispredicted holes).
  double fallback_fraction(NodeId node) const;

 private:
  void rebuild_tables();

  SpectrumParams spectrum_;
  Rng rng_;
  Slot last_slot_ = 0;
  std::vector<bool> busy_;  // per non-reserved channel (global index >= k)
  std::vector<int> fallbacks_;  // per node, this slot
  // One node's picks while its row is rebuilt, reserved at construction
  // so that no slot allocates: kept channels (at most c - k) and the rest
  // of its band split by state (at most `band` together).
  std::vector<Channel> keep_, free_picks_, busy_picks_;
};

}  // namespace cogradio
