#include "gpusim/racecheck.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "gpusim/sim_counters.h"

namespace dycuckoo {
namespace gpusim {

namespace {

constexpr int kShards = 64;

// Vector clocks are indexed by *clock slot* = warp_id % kVcSlots, the
// bounded-domain trick production checkers use (ThreadSanitizer caps its
// clock domain the same way).  A launch with more warps than slots maps
// several warps onto one slot; slot reuse behaves as a join, so colliding
// pairs can only be *under*-reported (false negatives among warps exactly
// kVcSlots apart), never falsely reported — the race check still compares
// logical warp ids, and a suppression needs a clock entry at least as
// large as the writer's tick, which only a real sync chain or a same-slot
// predecessor can supply.  Bounding the domain keeps every clock
// operation O(kVcSlots) instead of O(live warps), which is what makes
// whole-suite checking affordable.
constexpr uint32_t kVcSlots = 64;

using DenseClock = std::array<uint64_t, kVcSlots>;

size_t ShardOf(const void* addr) {
  uint64_t a = reinterpret_cast<uintptr_t>(addr);
  return static_cast<size_t>(((a >> 4) * 0x9E3779B97F4A7C15ull) >> 58) %
         kShards;
}

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kWriteWriteRace:
      return "write-write-race";
    case FindingKind::kReadWriteRace:
      return "read-write-race";
    case FindingKind::kOutOfBounds:
      return "out-of-bounds";
    case FindingKind::kUseAfterFree:
      return "use-after-free";
    case FindingKind::kDoubleFree:
      return "double-free";
    case FindingKind::kInvalidFree:
      return "invalid-free";
  }
  return "unknown";
}

uint64_t RaceReport::Digest() const {
  uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<uint8_t>(v >> (8 * i)));
  };
  for (const RaceFinding& f : findings) {
    mix(static_cast<uint64_t>(f.kind));
    for (char c : f.tag) mix_byte(static_cast<uint8_t>(c));
    mix_byte(0);  // tag terminator so "ab"+"c" != "a"+"bc"
    mix(static_cast<uint64_t>(f.offset));
    mix(f.access_bytes);
    mix(f.launch);
  }
  return h;
}

std::string RaceReport::ToString() const {
  std::ostringstream os;
  os << "RaceCheck report: " << findings.size() << " finding(s)"
     << " launches=" << launches << " checked_loads=" << checked_loads
     << " checked_stores=" << checked_stores << " sync_events=" << sync_events
     << " warp_syncs=" << warp_syncs << "\n";
  for (const RaceFinding& f : findings) {
    os << "  [" << FindingKindName(f.kind) << "] tag=" << f.tag
       << " offset=" << f.offset << " bytes=" << f.access_bytes
       << " launch=" << f.launch;
    if (!f.detail.empty()) os << " (" << f.detail << ")";
    os << "\n";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(Digest()));
  os << "  digest=" << buf;
  return os.str();
}

// Per-(worker thread, warp) state.  A worker runs warps strictly one at a
// time, so a single thread_local slot suffices; `owner` ties the slot to
// the checker that populated it (a slot left over from a dead checker is
// simply ignored).
struct RaceCheck::WarpContext {
  RaceCheck* owner = nullptr;
  uint64_t warp = kHostThread;
  uint32_t slot = 0;  // warp % kVcSlots
  uint64_t epoch = 0;
  uint64_t launch_ordinal = 0;
  // vc[s] = latest tick of clock slot s this warp has observed.  The own
  // entry vc[slot] doubles as the warp's current tick; it starts >= 1 (an
  // ignorant clock knows tick 0 only) and is bumped at every release.
  DenseClock vc{};
  std::vector<const void*> locks;  // currently held bucket locks
};

struct RaceCheck::State {
  // Last checked write to one word.
  struct WordState {
    uint64_t epoch = 0;
    uint64_t writer = kHostThread;
    uint32_t writer_slot = 0;
    uint64_t writer_tick = 0;
    bool racy_ok = false;
    std::vector<const void*> lockset;  // writer's held locks at store time
  };
  // Vector clock carried by one synchronization word (lock word or
  // atomic), sparse (sorted by slot): most sync words are only ever
  // touched by a handful of warps.
  struct SyncState {
    uint64_t epoch = 0;
    std::vector<std::pair<uint32_t, uint64_t>> vc;
  };
  struct WordShard {
    common::Mutex mu;
    std::unordered_map<uintptr_t, WordState> words GUARDED_BY(mu);
  };
  struct SyncShard {
    common::Mutex mu;
    std::unordered_map<uintptr_t, SyncState> syncs GUARDED_BY(mu);
  };

  WordShard word_shards[kShards];
  SyncShard sync_shards[kShards];

  // Globally monotonic per-slot tick counters (never reset: the epoch
  // gate already excludes cross-launch pairs, and monotonicity is what
  // gives slot reuse its join-on-reuse semantics).
  std::atomic<uint64_t> slot_ticks[kVcSlots]{};

  // Findings deduplicated by stable key; `launch` keeps the first
  // occurrence (deterministic: launches are serialized).
  using Key = std::tuple<int, std::string, int64_t, uint32_t>;
  common::Mutex findings_mu;
  std::map<Key, RaceFinding> findings GUARDED_BY(findings_mu);
};

std::atomic<RaceCheck*> RaceCheck::active_{nullptr};
thread_local RaceCheck::WarpContext RaceCheck::tls_warp_;

RaceCheck::RaceCheck(const RaceCheckConfig& config)
    : config_(config),
      shadow_(config.quarantine_bytes),
      state_(new State()) {}

RaceCheck::~RaceCheck() {
  if (active_.load(std::memory_order_acquire) == this) {
    Install(nullptr);
  }
}

RaceCheck* RaceCheck::Install(RaceCheck* checker) {
  return active_.exchange(checker, std::memory_order_acq_rel);
}

RaceCheck::WarpContext* RaceCheck::CurrentWarp() {
  return tls_warp_.owner == this ? &tls_warp_ : nullptr;
}

RaceReport RaceCheck::Report() const {
  RaceReport report;
  {
    common::MutexLock lock(state_->findings_mu);
    report.findings.reserve(state_->findings.size());
    for (const auto& [key, finding] : state_->findings) {
      report.findings.push_back(finding);
    }
  }
  // The dedup map is already sorted by (kind, tag, offset, bytes); launch
  // is a function of the key for a deterministic workload.
  report.launches = launches_.load(std::memory_order_relaxed);
  report.checked_loads = checked_loads_.load(std::memory_order_relaxed);
  report.checked_stores = checked_stores_.load(std::memory_order_relaxed);
  report.sync_events = sync_events_.load(std::memory_order_relaxed);
  report.warp_syncs = warp_syncs_.load(std::memory_order_relaxed);
  return report;
}

void RaceCheck::OnLaunchBegin(uint64_t num_warps) {
  (void)num_warps;
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  uint64_t ordinal = launches_.fetch_add(1, std::memory_order_acq_rel) + 1;
  launch_ordinal_.store(ordinal, std::memory_order_release);
}

void RaceCheck::OnLaunchEnd() {
  // A second epoch bump fences the join edge: host code running after the
  // launch can never pair with stores made inside it.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  launch_ordinal_.store(0, std::memory_order_release);
}

void RaceCheck::OnWarpBegin(uint64_t warp_id) {
  WarpContext& ctx = tls_warp_;
  ctx.owner = this;
  ctx.warp = warp_id;
  ctx.slot = static_cast<uint32_t>(warp_id % kVcSlots);
  ctx.epoch = epoch_.load(std::memory_order_acquire);
  ctx.launch_ordinal = launch_ordinal_.load(std::memory_order_acquire);
  ctx.vc.fill(0);
  // Claim a fresh tick for the own slot (>= 1, so an ignorant reader's 0
  // never satisfies happens-before).  Taking the slot counter's successor
  // is the join-on-reuse: everything a same-slot predecessor published is
  // treated as observed.
  ctx.vc[ctx.slot] =
      state_->slot_ticks[ctx.slot].fetch_add(1, std::memory_order_relaxed) + 1;
  ctx.locks.clear();
}

void RaceCheck::OnWarpEnd() {
  tls_warp_.owner = nullptr;
  tls_warp_.locks.clear();
}

void RaceCheck::OnWarpSync() {
  warp_syncs_.fetch_add(1, std::memory_order_relaxed);
}

void RaceCheck::OnLockAcquire(const void* lock) {
  sync_events_.fetch_add(1, std::memory_order_relaxed);
  if (WarpContext* ctx = CurrentWarp()) {
    ctx->locks.push_back(lock);
  }
}

void RaceCheck::OnLockRelease(const void* lock) {
  sync_events_.fetch_add(1, std::memory_order_relaxed);
  if (WarpContext* ctx = CurrentWarp()) {
    auto it = std::find(ctx->locks.rbegin(), ctx->locks.rend(), lock);
    if (it != ctx->locks.rend()) {
      ctx->locks.erase(std::next(it).base());
    }
  }
}

void RaceCheck::OnAtomicRelease(const void* addr) {
  sync_events_.fetch_add(1, std::memory_order_relaxed);
  WarpContext* ctx = CurrentWarp();
  if (ctx == nullptr) return;  // host atomics carry no warp clock
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  State::SyncShard& shard = state_->sync_shards[ShardOf(addr)];
  common::MutexLock lock(shard.mu);
  State::SyncState& sync = shard.syncs[reinterpret_cast<uintptr_t>(addr)];
  if (sync.epoch != epoch) {
    // Stale clock from an earlier launch: warp ids restart every launch,
    // so carrying it over would forge happens-before edges.
    sync.vc.clear();
    sync.epoch = epoch;
  }
  // Publish the warp's clock (including its own current tick) into the
  // sync word's sparse clock, then advance the own tick so stores made
  // after this release are *not* covered by it.
  for (uint32_t s = 0; s < kVcSlots; ++s) {
    const uint64_t tick = ctx->vc[s];
    if (tick == 0) continue;
    auto it = std::lower_bound(
        sync.vc.begin(), sync.vc.end(), s,
        [](const std::pair<uint32_t, uint64_t>& e, uint32_t slot) {
          return e.first < slot;
        });
    if (it != sync.vc.end() && it->first == s) {
      if (tick > it->second) it->second = tick;
    } else {
      sync.vc.insert(it, {s, tick});
    }
  }
  ctx->vc[ctx->slot] =
      state_->slot_ticks[ctx->slot].fetch_add(1, std::memory_order_relaxed) +
      1;
}

void RaceCheck::OnAtomicAcquire(const void* addr, uint32_t bytes) {
  CheckAccessClass(addr, bytes);
  WarpContext* ctx = CurrentWarp();
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (ctx != nullptr) {
    State::SyncShard& shard = state_->sync_shards[ShardOf(addr)];
    common::MutexLock lock(shard.mu);
    auto it = shard.syncs.find(reinterpret_cast<uintptr_t>(addr));
    if (it != shard.syncs.end() && it->second.epoch == epoch) {
      for (const auto& [s, tick] : it->second.vc) {
        if (tick > ctx->vc[s]) ctx->vc[s] = tick;
      }
    }
  }
  // An atomic RMW is always a safe write: anchor the word's shadow state
  // to it so later plain stores are judged against the atomic, and never
  // pair a plain store with it.
  State::WordShard& shard = state_->word_shards[ShardOf(addr)];
  common::MutexLock lock(shard.mu);
  State::WordState& word = shard.words[reinterpret_cast<uintptr_t>(addr)];
  word.epoch = epoch;
  word.writer = ctx != nullptr ? ctx->warp : kHostThread;
  word.writer_slot = ctx != nullptr ? ctx->slot : 0;
  word.writer_tick = ctx != nullptr ? ctx->vc[ctx->slot] : 0;
  word.racy_ok = true;
  word.lockset.clear();
}

void RaceCheck::OnLoad(const void* addr, uint32_t bytes) {
  checked_loads_.fetch_add(1, std::memory_order_relaxed);
  CheckAccessClass(addr, bytes);
  if (!config_.track_reads) return;
  WarpContext* ctx = CurrentWarp();
  if (ctx == nullptr) return;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  uint64_t writer = 0;
  uint64_t writer_tick = 0;
  bool candidate = false;
  {
    State::WordShard& shard = state_->word_shards[ShardOf(addr)];
    common::MutexLock lock(shard.mu);
    auto it = shard.words.find(reinterpret_cast<uintptr_t>(addr));
    if (it != shard.words.end()) {
      const State::WordState& word = it->second;
      if (word.epoch == epoch && word.writer != ctx->warp &&
          word.writer != kHostThread && !word.racy_ok) {
        bool common_lock = false;
        for (const void* held : ctx->locks) {
          if (std::find(word.lockset.begin(), word.lockset.end(), held) !=
              word.lockset.end()) {
            common_lock = true;
            break;
          }
        }
        if (!common_lock &&
            ctx->vc[word.writer_slot] < word.writer_tick) {
          candidate = true;
          writer = word.writer;
          writer_tick = word.writer_tick;
        }
      }
    }
  }
  if (candidate) {
    (void)writer_tick;
    AccessInfo info = shadow_.Classify(addr, bytes);
    std::ostringstream detail;
    detail << "warp " << ctx->warp << " read vs warp " << writer << " write";
    RecordFinding(FindingKind::kReadWriteRace,
                  info.cls == AccessClass::kUntracked ? "<untracked>"
                                                      : info.tag,
                  info.cls == AccessClass::kUntracked ? 0 : info.offset, bytes,
                  detail.str());
  }
}

void RaceCheck::OnStore(const void* addr, uint32_t bytes, bool racy_ok) {
  checked_stores_.fetch_add(1, std::memory_order_relaxed);
  CheckAccessClass(addr, bytes);
  WarpContext* ctx = CurrentWarp();
  const uint64_t me = ctx != nullptr ? ctx->warp : kHostThread;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  uint64_t other = 0;
  bool race = false;
  {
    State::WordShard& shard = state_->word_shards[ShardOf(addr)];
    common::MutexLock lock(shard.mu);
    State::WordState& word = shard.words[reinterpret_cast<uintptr_t>(addr)];
    if (word.epoch == epoch && word.writer != me && me != kHostThread &&
        word.writer != kHostThread && !racy_ok && !word.racy_ok) {
      // Eraser first: a shared lock proves mutual exclusion cheaply.
      bool common_lock = false;
      for (const void* held : ctx->locks) {
        if (std::find(word.lockset.begin(), word.lockset.end(), held) !=
            word.lockset.end()) {
          common_lock = true;
          break;
        }
      }
      if (!common_lock &&
          // Then happens-before: did a sync chain deliver the writer's
          // store to us?
          ctx->vc[word.writer_slot] < word.writer_tick) {
        race = true;
        other = word.writer;
      }
    }
    word.epoch = epoch;
    word.writer = me;
    word.writer_slot = ctx != nullptr ? ctx->slot : 0;
    word.writer_tick = ctx != nullptr ? ctx->vc[ctx->slot] : 0;
    word.racy_ok = racy_ok;
    if (ctx != nullptr) {
      word.lockset = ctx->locks;
    } else {
      word.lockset.clear();
    }
  }
  if (race) {
    AccessInfo info = shadow_.Classify(addr, bytes);
    std::ostringstream detail;
    detail << "warps " << std::min(me, other) << "," << std::max(me, other);
    RecordFinding(FindingKind::kWriteWriteRace,
                  info.cls == AccessClass::kUntracked ? "<untracked>"
                                                      : info.tag,
                  info.cls == AccessClass::kUntracked ? 0 : info.offset, bytes,
                  detail.str());
  }
}

void RaceCheck::OnRangeLoad(const void* addr, size_t bytes) {
  checked_loads_.fetch_add(1, std::memory_order_relaxed);
  CheckAccessClass(addr, static_cast<uint32_t>(
                             std::min<size_t>(bytes, ~uint32_t{0})));
}

void RaceCheck::OnArenaAllocate(const void* user, size_t user_bytes,
                                void* block, size_t block_bytes,
                                const std::string& tag) {
  shadow_.Register(user, user_bytes, block, block_bytes, tag);
}

bool RaceCheck::OnArenaFree(const void* user, void* block) {
  (void)block;  // the shadow extent already owns the block pointer
  return shadow_.QuarantineFree(user);
}

void RaceCheck::OnBadFree(bool double_free, const std::string& original_tag) {
  RecordFinding(
      double_free ? FindingKind::kDoubleFree : FindingKind::kInvalidFree,
      double_free ? original_tag : "<unknown>", 0, 0, "");
}

void RaceCheck::CheckAccessClass(const void* addr, uint32_t bytes) {
  AccessInfo info = shadow_.Classify(addr, bytes, /*need_tag=*/false);
  if (info.cls == AccessClass::kUntracked || info.cls == AccessClass::kValid) {
    return;
  }
  // Findings are rare; re-resolve for the owning tag.
  info = shadow_.Classify(addr, bytes);
  WarpContext* ctx = CurrentWarp();
  std::ostringstream detail;
  if (ctx != nullptr) {
    detail << "warp " << ctx->warp;
  } else {
    detail << "host";
  }
  detail << ", alloc_bytes=" << info.alloc_bytes;
  RecordFinding(info.cls == AccessClass::kRedzone ? FindingKind::kOutOfBounds
                                                  : FindingKind::kUseAfterFree,
                info.tag, info.offset, bytes, detail.str());
}

void RaceCheck::RecordFinding(FindingKind kind, const std::string& tag,
                              int64_t offset, uint32_t access_bytes,
                              const std::string& detail) {
  WarpContext* ctx = CurrentWarp();
  const uint64_t launch =
      ctx != nullptr ? ctx->launch_ordinal
                     : launch_ordinal_.load(std::memory_order_acquire);
  State::Key key(static_cast<int>(kind), tag, offset, access_bytes);
  common::MutexLock lock(state_->findings_mu);
  if (state_->findings.count(key) != 0) return;
  if (state_->findings.size() >= config_.max_findings) return;
  RaceFinding finding;
  finding.kind = kind;
  finding.tag = tag;
  finding.offset = offset;
  finding.access_bytes = access_bytes;
  finding.launch = launch;
  finding.detail = detail;
  state_->findings.emplace(std::move(key), std::move(finding));
  Bump(SimCounters::Local().racecheck_findings);
}

namespace {

// Whole-process session: DYCUCKOO_RACECHECK=1 installs a checker before
// main() and enforces its verdict at static destruction.  Exit status 66
// (distinct from test-failure exits) is what the CI racecheck job keys on.
class EnvRaceCheckSession {
 public:
  EnvRaceCheckSession() {
    const char* v = std::getenv("DYCUCKOO_RACECHECK");
    if (v == nullptr || v[0] == '\0' || v[0] == '0') return;
    checker_ = new RaceCheck();
    RaceCheck::Install(checker_);
  }

  ~EnvRaceCheckSession() {
    if (checker_ == nullptr) return;
    RaceCheck::Install(nullptr);
    const RaceReport report = checker_->Report();
    const char* path = std::getenv("DYCUCKOO_RACECHECK_REPORT");
    if (path != nullptr && path[0] != '\0') {
      if (std::FILE* f = std::fopen(path, "w")) {
        const std::string text = report.ToString();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
    if (!report.clean()) {
      const std::string text = report.ToString();
      std::fprintf(stderr, "[racecheck] FAILED\n%s\n", text.c_str());
      std::fflush(stderr);
      // Leak the checker deliberately: quarantined blocks and shadow
      // state stay valid while we die with a recognizable status.
      std::_Exit(66);
    }
    delete checker_;
    checker_ = nullptr;
  }

 private:
  RaceCheck* checker_ = nullptr;
};

EnvRaceCheckSession env_race_check_session;

}  // namespace

}  // namespace gpusim
}  // namespace dycuckoo
