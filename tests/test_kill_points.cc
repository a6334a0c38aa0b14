// Invariants of the fault-injector kill-point registries.
//
// Every kill point the code can cross is named in exactly one registry:
//   - durability::kKillPointNames        (8, the durability protocol)
//   - durability::kReshardKillPointNames (5, elastic resharding)
//   - gpusim::DeviceArena::kSweepKillPointNames (2, memory-fault sweeps)
// These tests pin what no other gate checks: names are unique across the
// registries and each carries its registry's prefix.  That every name is
// documented in docs/robustness.md (and every documented name exists) is
// dylint's registry-sync rule, run over the live tree by
// DylintTest.LiveTreeIsClean.

#include <set>
#include <string>

#include "gtest/gtest.h"

#include "durability/log_format.h"
#include "gpusim/device_arena.h"

namespace dycuckoo {
namespace {

std::set<std::string> RegisteredKillPoints() {
  std::set<std::string> names;
  for (size_t i = 0; i < durability::kNumKillPoints; ++i) {
    names.insert(durability::kKillPointNames[i]);
  }
  for (size_t i = 0; i < durability::kNumReshardKillPoints; ++i) {
    names.insert(durability::kReshardKillPointNames[i]);
  }
  for (size_t i = 0; i < gpusim::DeviceArena::kNumSweepKillPoints; ++i) {
    names.insert(gpusim::DeviceArena::kSweepKillPointNames[i]);
  }
  return names;
}

TEST(KillPointRegistry, NamesAreUniqueAcrossRegistries) {
  // The union's size equals the sum of the registry sizes: no name is
  // registered twice (a duplicate would make kill_point_filter ambiguous).
  EXPECT_EQ(RegisteredKillPoints().size(),
            durability::kNumKillPoints + durability::kNumReshardKillPoints +
                gpusim::DeviceArena::kNumSweepKillPoints);
}

TEST(KillPointRegistry, EveryNameCarriesItsRegistryPrefix) {
  for (size_t i = 0; i < durability::kNumReshardKillPoints; ++i) {
    EXPECT_EQ(std::string(durability::kReshardKillPointNames[i])
                  .rfind("reshard.", 0),
              0u)
        << durability::kReshardKillPointNames[i];
  }
  for (size_t i = 0; i < gpusim::DeviceArena::kNumSweepKillPoints; ++i) {
    EXPECT_EQ(std::string(gpusim::DeviceArena::kSweepKillPointNames[i])
                  .rfind("mem.sweep.", 0),
              0u)
        << gpusim::DeviceArena::kSweepKillPointNames[i];
  }
  for (size_t i = 0; i < durability::kNumKillPoints; ++i) {
    const std::string n = durability::kKillPointNames[i];
    EXPECT_TRUE(n.rfind("wal.", 0) == 0 || n.rfind("ckpt.", 0) == 0) << n;
  }
}

}  // namespace
}  // namespace dycuckoo
