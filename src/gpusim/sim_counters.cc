#include "gpusim/sim_counters.h"

namespace dycuckoo {
namespace gpusim {

SimCounters& SimCounters::Get() {
  static SimCounters instance;
  return instance;
}

}  // namespace gpusim
}  // namespace dycuckoo
