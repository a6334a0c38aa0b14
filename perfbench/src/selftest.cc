// Self-tests for the benchmark's own helpers: percentiles and their
// sample-count rule, the set-up repeat rule, ratios that keep their base,
// span self-time arithmetic, and the output checks (a planted wrong result
// must fail).
// Exits non-zero on the first failing expectation's run.

#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "trace.h"
#include "util.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace perfbench;

void TestPercentiles() {
  // Nearest rank: p99 of 1000 samples is the 990th (index 989).
  EXPECT(PercentileIndex(1000, 99) == 989);
  EXPECT(PercentileIndex(1000, 50) == 499);
  EXPECT(PercentileIndex(1, 99) == 0);
  EXPECT(PercentileIndex(100, 100) == 99);
  EXPECT(PercentileIndex(7, 50) == 3);

  // Sample-count rule: p99 needs ten samples beyond it.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(!PercentileSupported(999, 99));
  EXPECT(!PercentileSupported(100, 99));
  EXPECT(PercentileSupported(100, 50));
  EXPECT(!PercentileSupported(0, 50));

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const Summary s = Summarize(v);
  EXPECT(s.n == 1000);
  EXPECT(s.median == 500);
  EXPECT(s.p10 == 100);
  EXPECT(s.p90 == 900);
  EXPECT(s.p99 == 990);
  EXPECT(s.mean == 500.5);
  EXPECT(s.p99_supported);
  // With 100 samples p99 is the maximum in disguise: not supported.
  const Summary small = Summarize(std::vector<double>(100, 1.0));
  EXPECT(!small.p99_supported);
  EXPECT(Summarize({}).n == 0);

  // Windows: 2500 samples in windows of at least 1000 make two windows,
  // the second taking the remainder (1500 samples).
  std::vector<double> w;
  for (int i = 0; i < 1000; ++i) w.push_back(1);
  for (int i = 0; i < 1500; ++i) w.push_back(i < 1480 ? 2 : 50);
  const LatencyWindows lw = SummarizeWindows(w, 1000);
  EXPECT(lw.p50.size() == 2 && lw.p99.size() == 2);
  EXPECT(lw.smallest == 1000);
  EXPECT(lw.p50[0] == 1 && lw.p50[1] == 2);
  EXPECT(lw.p99[0] == 1 && lw.p99[1] == 50);  // 20 of 1500 beyond rank
  EXPECT(SummarizeWindows(std::vector<double>(999, 1.0), 1000).p99.empty());
}

void TestSetupRepeats() {
  // At least three set-ups, however slow.
  EXPECT(MoreSetups({}));
  EXPECT(MoreSetups({5.0, 5.0}));
  EXPECT(!MoreSetups({5.0, 5.0, 5.0}));
  // Quick ones repeat until they add up to a second...
  EXPECT(MoreSetups({0.2, 0.2, 0.2}));
  EXPECT(!MoreSetups({0.2, 0.2, 0.2, 0.2, 0.2}));
  // ...or until the cap.
  EXPECT(MoreSetups(std::vector<double>(kMaxSetupRepeats - 1, 0.01)));
  EXPECT(!MoreSetups(std::vector<double>(kMaxSetupRepeats, 0.01)));
}

void TestRatios() {
  const Ratio r{30, 120};
  EXPECT(r.value() == 0.25);
  EXPECT((Ratio{5, 0}.value() == 0.0));  // empty base: 0, never NaN
  const std::string j = RatioJson(r, "cas_failed", "cas").str();
  EXPECT(j == "{\"cas_failed\": 30, \"cas\": 120}");
  EXPECT(JsonNumber(0.1) == "0.1");
  EXPECT(JsonNumber(1.0 / 0.0) == "null");
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

Span At(const char* layer, uint32_t parent, int64_t start, int64_t end) {
  Span s;
  s.layer = layer;
  s.name = "x";
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  SpanRecorder rec;
  const uint32_t root = rec.Add(At("bench", 0, 0, 100));
  rec.Add(At("dycuckoo", root, 10, 30));   // 20
  rec.Add(At("dycuckoo", root, 20, 50));   // overlaps: union 10..50 = 40
  rec.Add(At("service", root, 90, 120));   // clipped to 90..100 = 10
  const uint32_t lone = rec.Add(At("service", 0, 200, 260));
  rec.Add(At("durability", lone, 210, 220));
  const std::vector<int64_t> self = rec.SelfTimesNs();
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 50);
  EXPECT(self[5] == 10);
  const auto by_layer = rec.SelfTimeByLayerNs();
  EXPECT(by_layer.at("bench") == 50);
  EXPECT(by_layer.at("dycuckoo") == 50);
  EXPECT(by_layer.at("service") == 80);
  EXPECT(by_layer.at("durability") == 10);

  // A disabled recorder hands out id 0 and ignores it everywhere.
  SpanRecorder off;
  const uint32_t id = off.Open("bench", "x");
  EXPECT(id == 0);
  off.Close(id);
  off.Tag(id, "resize");
  EXPECT(off.spans().empty());
  off.set_enabled(true);
  const uint32_t on = off.Open("bench", "x", 0, 7);
  off.Close(on);
  EXPECT(on == 1 && off.span(on).request == 7);
  EXPECT(off.span(on).end_ns >= off.span(on).start_ns);
}

void TestFindCheck() {
  PairSet written;
  written.Reserve(4);
  written.Insert(1, 10);
  written.Insert(2, 20);
  written.Insert(2, 21);  // a key written twice: both values are valid
  const uint32_t keys[] = {1, 2, 3, 2};
  const uint8_t expected[] = {1, 1, 0, 1};
  uint8_t found[] = {1, 1, 0, 1};
  uint32_t values[] = {10, 21, 0, 20};
  EXPECT(CheckFinds(keys, found, values, expected, 4, written) == 0);

  // Planted wrong results must each be caught.
  found[2] = 1;  // a hit on an absent key
  EXPECT(CheckFinds(keys, found, values, expected, 4, written) == 1);
  found[2] = 0;
  found[0] = 0;  // a miss on a present key
  EXPECT(CheckFinds(keys, found, values, expected, 4, written) == 1);
  found[0] = 1;
  values[1] = 10;  // a value written to another key
  EXPECT(CheckFinds(keys, found, values, expected, 4, written) == 1);

  // PairSet growth keeps every pair.
  PairSet grow;
  for (uint32_t i = 0; i < 1000; ++i) grow.Insert(i, i * 3);
  bool all = grow.size() == 1000;
  for (uint32_t i = 0; i < 1000; ++i) all = all && grow.Contains(i, i * 3);
  EXPECT(all);
  EXPECT(!grow.Contains(5, 16));

  const KeyIndex index({7, 99, 1234567});
  EXPECT(index.Find(99) == 1);
  EXPECT(index.Find(8) == KeyIndex::kMissing);
}

void TestLedger() {
  WriteLedger ledger(2);
  const uint32_t a = ledger.NewWrite(0);  // acked at step 1
  const uint32_t b = ledger.NewWrite(0);  // acked at step 3
  const uint32_t c = ledger.NewWrite(0);  // acked at step 3 (same batch)
  const uint32_t d = ledger.NewWrite(1);
  ledger.Ack(a, 1);
  ledger.Ack(b, 3);
  ledger.Ack(c, 3);
  // A find submitted after step 3: latest ack step of key 0 was 3.
  EXPECT(ledger.FindValueValid(0, b, 3, 3));
  EXPECT(ledger.FindValueValid(0, c, 3, 3));
  EXPECT(!ledger.FindValueValid(0, a, 3, 3));  // superseded
  EXPECT(!ledger.FindValueValid(0, d, 3, 3));  // another key's value
  EXPECT(!ledger.FindValueValid(0, 1000, 3, 3));
  // Submitted after step 2 (latest ack 1): b and c were in flight.
  EXPECT(ledger.FindValueValid(0, a, 2, 1));
  EXPECT(ledger.FindValueValid(0, b, 2, 1));
  // An unacked upsert is in flight.
  EXPECT(ledger.FindValueValid(1, d, 5, WriteLedger::kNever));
  // Durable state must hold one of the latest step's values.
  EXPECT(ledger.DurableValueValid(0, b));
  EXPECT(ledger.DurableValueValid(0, c));
  EXPECT(!ledger.DurableValueValid(0, a));
  EXPECT(!ledger.DurableValueValid(1, d));  // never acked
}

}  // namespace

int main() {
  TestPercentiles();
  TestSetupRepeats();
  TestRatios();
  TestSelfTime();
  TestFindCheck();
  TestLedger();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
