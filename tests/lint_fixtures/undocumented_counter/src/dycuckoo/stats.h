// Fixture: a planted registry-sync defect in the counter list.  The list
// declares a counter docs/robustness.md lacks, and the doc names one the
// list no longer declares.  dylint must flag the drift in both
// directions.  The planted entry sits after a multi-line comment so the
// scan has to follow line continuations through it.
#ifndef FIXTURE_STATS_H_
#define FIXTURE_STATS_H_

#include "common/counters.h"

namespace fixture {

#define DYCUCKOO_TABLE_STATS_COUNTERS(X)                          \
  X(inserts_new)       /* documented */                           \
  X(finds)                                                        \
  /* A section comment spanning lines, as the real list has,      \
     with an X(not_a_counter) mention the scan must ignore. */    \
  X(undocumented_new_counter) /* PLANTED DEFECT: not in the doc */

class TableStats {
 public:
  DYCUCKOO_COUNTERS(DYCUCKOO_TABLE_STATS_COUNTERS)
};

}  // namespace fixture

#endif  // FIXTURE_STATS_H_
