// Shared PlanetLab campaign used by the Fig. 5-8 benches.
#pragma once

#include <map>
#include <vector>

#include "common.h"
#include "exp/planetlab.h"

namespace halfback::bench {

/// The shared flags run_planetlab_campaign() reads.
inline constexpr Flags kPlanetLabFlags = kFull | kSeed | kThreads | kPairs;

struct PlanetLabCampaign {
  exp::PlanetLabConfig config;
  std::map<schemes::Scheme, std::vector<exp::TrialResult>> trials;
};

/// Run the §4.2.1 campaign: the PlanetLab scheme set over a shared path
/// ensemble (quick: 300 pairs, full: the paper's 2600). Exits 1 if any
/// trial reports an invariant violation.
inline PlanetLabCampaign run_planetlab_campaign(const Options& opt) {
  PlanetLabCampaign campaign;
  campaign.config.pair_count = opt.pairs > 0 ? opt.pairs : (opt.full ? 2600 : 300);
  campaign.config.seed = opt.seed * 1000003;
  campaign.config.threads = opt.threads;
  exp::PlanetLabEnv env{campaign.config};
  for (schemes::Scheme scheme : schemes::planetlab_set()) {
    campaign.trials[scheme] = env.run(scheme);
    require_clean_audit(campaign.trials[scheme]);
  }
  return campaign;
}

}  // namespace halfback::bench
