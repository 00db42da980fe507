// Named scenario registry: experiment specs looked up by name
// (`ceio_sim --scenario fig04-reference`) and listed by
// `ceio_sim --list-scenarios`.
//
// The registry is filled on first use: ScenarioRegistry::instance() calls
// register_paper_scenarios() (paper_scenarios.cc), which adds each preset
// with ScenarioRegistry::add. A new preset goes there. Static-init
// registration from other translation units is deliberately not offered:
// the harness is a static library, and the linker drops an object file
// nothing references — initializers included.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace ceio::harness {

struct Scenario {
  std::string name;
  std::string description;
  ExperimentSpec spec;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Registers a scenario. Duplicate names are a programming error and abort
  /// (names are compile-time constants, so this can only fire at startup).
  void add(Scenario scenario);

  /// nullptr when no scenario has that name.
  const Scenario* find(std::string_view name) const;

  /// All scenarios, sorted by name (stable listing for --list-scenarios).
  std::vector<const Scenario*> all() const;

 private:
  ScenarioRegistry() = default;
  std::vector<Scenario> scenarios_;
};

/// Registers the paper's figure/table presets (paper_scenarios.cc); called
/// once from ScenarioRegistry::instance().
void register_paper_scenarios(ScenarioRegistry& registry);

}  // namespace ceio::harness
