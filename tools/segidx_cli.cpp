// segidx command-line tool: create, load, query, and inspect index files.
//
//   segidx create --file=idx --kind=skeleton-srtree [--expected=N]
//                 [--domain=xlo:xhi:ylo:yhi] [--sample=N]
//   segidx insert --file=idx [--input=data.csv]
//       CSV rows: tid,xlo,xhi[,ylo,yhi]   (2 coords = 1-D interval at y=0)
//   segidx query  --file=idx --rect=xlo:xhi:ylo:yhi [--limit=N]
//   segidx stats  --file=idx [--dump=DEPTH]
//   segidx verify --file=idx
//   segidx check  --file=idx [--min-fill=1] [--tight=1] [--strict=1]
//                 [--no-quota=1] [--no-pages=1] [--max-violations=N]
//   segidx bench-parallel --file=idx [--queries=N] [--qar=F]
//                 [--threads=1,2,4,8] [--seed=S]
//   segidx scrub  --file=idx [--rate=EXTENTS_PER_SEC] [--no-quarantine=1]
//   segidx salvage --file=damaged --out=new [--kind=rtree|srtree]
//   segidx bench-resilience [--records=N] [--queries=N] [--repeats=N]
//                 [--threads=N] [--delay-us=N] [--deadline-us=N]
//                 [--pool=BYTES] [--seed=S] [--out=JSON_PATH]
//   segidx bench-mixed [--records=N] [--readers=N] [--commit-every=N]
//                 [--seed=S] [--out=JSON_PATH]
//   segidx torture [--mode=crash|scrub] [--kind=srtree] [--records=N]
//                 [--checkpoint-every=N] [--tear=BYTES] [--max-points=N]
//                 [--rounds=N] [--corrupt=N] [--seed=S] [--pool=BYTES]
//                 [--quiet=1]
//   segidx serve  --file=idx [--port=N] [--host=ADDR] [--threads=N]
//                 [--writers=N] [--max-batch=N] [--queue-depth=N]
//                 [--max-inflight=N] [--commit-every=N] [--budget-us=N]
//                 [--scrub-interval-ms=N] [--scrub-rate=N]
//
// `verify` stops at the first violation; `check` runs the full
// StructureChecker walk and prints every violation plus walk statistics.
// `bench-parallel` runs a batch of random square queries (query area ratio
// `qar` of the root region) serially, then through the parallel
// QueryEngine at each thread count, checking result sets stay identical
// and reporting throughput.
// `scrub` CRC-verifies every reachable node page plus the superblock slots
// and free extents (exit 1 when defects are found); `salvage` scavenges
// every decodable record out of a damaged file into a fresh index at
// --out. `bench-resilience` measures batch query latency with and without
// per-batch deadlines under injected slow reads (in memory) and emits a
// JSON summary. `torture` runs the crash-recovery sweep (--mode=crash,
// default) or the content-corruption scrub/salvage sweep (--mode=scrub);
// both run in memory, no --file.
//
// Every command that opens an index file prints the pager's recovery
// report to stderr (slot fallbacks and journal replays are operator
// signals).
//
// Exit codes: 0 success, 1 runtime error / violations found, 2 usage error.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"
#include "exec/write_pool.h"
#include "core/salvage.h"
#include "server/server.h"
#include "storage/fault_injection.h"
#include "torture/recovery_torture.h"
#include "torture/scrub_torture.h"
#include "torture/serve_torture.h"

namespace {

using namespace segidx;
using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;

int Usage() {
  std::fprintf(
      stderr,
      "usage: segidx <create|insert|query|stats|verify|check|bench-parallel|\n"
      "               scrub|salvage|serve> --file=PATH ...\n"
      "       segidx <bench-resilience|bench-mixed|torture> ...  (in memory)\n"
      "  create: --kind=rtree|srtree|skeleton-rtree|skeleton-srtree\n"
      "          [--expected=N] [--sample=N] [--domain=xlo:xhi:ylo:yhi]\n"
      "  insert: [--input=CSV]  rows: tid,xlo,xhi[,ylo,yhi]\n"
      "  query:  --rect=xlo:xhi:ylo:yhi [--limit=N]\n"
      "  stats:  [--dump=DEPTH]  (print tree structure to DEPTH levels)\n"
      "  verify: quick check, stops at the first violation\n"
      "  check:  full structural report  [--min-fill=1] [--tight=1]\n"
      "          [--strict=1] [--no-quota=1] [--no-pages=1]\n"
      "          [--max-violations=N]\n"
      "  bench-parallel: [--queries=N] [--qar=F] [--threads=1,2,4,8]\n"
      "          [--seed=S]\n"
      "  scrub:  verify every extent  [--rate=EXTENTS_PER_SEC]\n"
      "          [--no-quarantine=1]\n"
      "  salvage: rebuild from a damaged file  --out=NEW_PATH\n"
      "          [--kind=rtree|srtree]\n"
      "  bench-resilience: deadline latency bench (no --file; in memory)\n"
      "          [--records=N] [--queries=N] [--repeats=N] [--threads=N]\n"
      "          [--delay-us=N] [--deadline-us=N] [--pool=BYTES] [--seed=S]\n"
      "          [--out=JSON_PATH]\n"
      "  bench-mixed: concurrent writer/reader throughput (no --file)\n"
      "          [--records=N] [--readers=N] [--commit-every=N] [--seed=S]\n"
      "          [--out=JSON_PATH]\n"
      "  torture: fault sweeps (no --file; runs in memory)\n"
      "          --mode=crash (default): [--kind=srtree] [--records=N]\n"
      "          [--checkpoint-every=N] [--tear=BYTES] [--max-points=N]\n"
      "          --mode=scrub: [--kind=srtree] [--records=N] [--rounds=N]\n"
      "          [--corrupt=N]\n"
      "          --mode=serve: end-to-end serving chaos (network faults +\n"
      "          server crash/restart; exactly-once oracle)\n"
      "          [--kind=rtree|srtree] [--writers=N] [--readers=N]\n"
      "          [--ops=N] [--chaos-rounds=N] [--crash-rounds=N]\n"
      "          [--crashes=N] [--reset-prob=F] [--delay-prob=F]\n"
      "          [--short-write-prob=F] [--commit-every=N]\n"
      "          [--deadline-ms=N]\n"
      "          common: [--seed=S] [--pool=BYTES] [--quiet=1]\n"
      "  serve:  socket server (segidxd); stop with SIGINT/SIGTERM\n"
      "          [--port=N] [--host=ADDR] [--threads=N] [--writers=N]\n"
      "          [--max-batch=N] [--queue-depth=N] [--max-inflight=N]\n"
      "          [--commit-every=N] [--budget-us=N]\n"
      "          [--scrub-interval-ms=N] [--scrub-rate=N]\n");
  return 2;
}

// Simple --key=value argument map.
struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> kv;

  std::optional<std::string> Get(const std::string& key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
};

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return std::nullopt;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return std::nullopt;
    args.kv.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return args;
}

std::optional<IndexKind> ParseKind(const std::string& name) {
  if (name == "rtree") return IndexKind::kRTree;
  if (name == "srtree") return IndexKind::kSRTree;
  if (name == "skeleton-rtree") return IndexKind::kSkeletonRTree;
  if (name == "skeleton-srtree") return IndexKind::kSkeletonSRTree;
  return std::nullopt;
}

// Parses "a:b:c:d" into exactly `n` doubles.
std::optional<std::vector<double>> ParseColons(const std::string& text,
                                               size_t n) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string piece;
  while (std::getline(ss, piece, ':')) {
    char* end = nullptr;
    const double v = std::strtod(piece.c_str(), &end);
    if (end == piece.c_str() || *end != '\0') return std::nullopt;
    out.push_back(v);
  }
  if (out.size() != n) return std::nullopt;
  return out;
}

// Strict numeric value parsers: the whole string must be one number, no
// trailing garbage, no overflow. std::stoull and friends would throw (and,
// uncaught, abort the process) on input like --records=abc; a typo in a
// flag is a user error, not a crash.
bool ParseU64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseF64Value(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// Flag readers. Absent flags leave *out at its default and succeed;
// present-but-malformed values print what was rejected and return false,
// which callers turn into exit code 1 (the convention the bench-parallel
// --threads guard established). All integer flags in this CLI are counts
// or sizes, so negatives are always rejected; `require_positive`
// additionally rejects zero (e.g. --threads=0 would spin up no workers).
bool GetU64(const Args& args, const char* key, uint64_t* out,
            bool require_positive = false) {
  const auto v = args.Get(key);
  if (!v) return true;
  uint64_t parsed = 0;
  if (!ParseU64Value(*v, &parsed) || (require_positive && parsed == 0)) {
    std::fprintf(stderr, "--%s: expected a %s integer, got '%s'\n", key,
                 require_positive ? "positive" : "non-negative", v->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool GetSize(const Args& args, const char* key, size_t* out,
             bool require_positive = false) {
  uint64_t v = *out;
  if (!GetU64(args, key, &v, require_positive)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool GetI32(const Args& args, const char* key, int* out,
            bool require_positive = false) {
  uint64_t v = static_cast<uint64_t>(*out);
  if (!GetU64(args, key, &v, require_positive)) return false;
  if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "--%s: value %llu out of range\n", key,
                 static_cast<unsigned long long>(v));
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool GetF64(const Args& args, const char* key, double* out,
            bool require_positive = false) {
  const auto v = args.Get(key);
  if (!v) return true;
  double parsed = 0;
  if (!ParseF64Value(*v, &parsed) || (require_positive && parsed <= 0)) {
    std::fprintf(stderr, "--%s: expected a %snumber, got '%s'\n", key,
                 require_positive ? "positive " : "", v->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

// Index options from flags. nullopt (after printing the offending flag)
// when a value does not parse — including a malformed --domain, which used
// to be dropped silently.
std::optional<IndexOptions> OptionsFrom(const Args& args) {
  IndexOptions options;
  if (!GetU64(args, "expected", &options.skeleton.expected_tuples) ||
      !GetU64(args, "sample", &options.skeleton.prediction_sample)) {
    return std::nullopt;
  }
  if (auto domain = args.Get("domain")) {
    const auto v = ParseColons(*domain, 4);
    if (!v) {
      std::fprintf(stderr, "--domain: want xlo:xhi:ylo:yhi, got '%s'\n",
                   domain->c_str());
      return std::nullopt;
    }
    options.skeleton.x_domain = Interval((*v)[0], (*v)[1]);
    options.skeleton.y_domain = Interval((*v)[2], (*v)[3]);
  }
  return options;
}

// Opens an index file and surfaces the pager's recovery report on stderr —
// a slot fallback or journal replay is an operator signal even when the
// command itself succeeds.
Result<std::unique_ptr<IntervalIndex>> OpenIndex(const Args& args,
                                                 const std::string& file) {
  const auto options = OptionsFrom(args);
  if (!options) return InvalidArgumentError("bad flag value");
  auto opened = IntervalIndex::OpenFromDisk(file, *options);
  if (opened.ok()) {
    const storage::RecoveryReport& rec =
        (*opened)->pager()->recovery_report();
    std::string line =
        "recovery: format v" + std::to_string(rec.format_version);
    if (rec.active_slot >= 0) {
      line += ", slot " + std::to_string(rec.active_slot);
    }
    line += ", epoch " + std::to_string(rec.epoch);
    if (rec.fell_back) line += ", FELL BACK to the older superblock slot";
    if (rec.journal_replayed) {
      line += ", replayed " + std::to_string(rec.journal_entries) +
              " journal entries (" + std::to_string(rec.pages_salvaged) +
              " page images)";
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  return opened;
}

int CmdCreate(const Args& args, const std::string& file) {
  const auto kind_name = args.Get("kind");
  if (!kind_name) return Usage();
  const auto kind = ParseKind(*kind_name);
  if (!kind) {
    std::fprintf(stderr, "unknown kind: %s\n", kind_name->c_str());
    return 2;
  }
  const auto options = OptionsFrom(args);
  if (!options) return 1;
  auto index = IntervalIndex::CreateOnDisk(*kind, file, *options);
  if (!index.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  if (auto st = (*index)->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("created %s index at %s\n", IndexKindName(*kind),
              file.c_str());
  return 0;
}

int CmdInsert(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  std::ifstream file_input;
  if (auto input = args.Get("input")) {
    file_input.open(*input);
    if (!file_input) {
      std::fprintf(stderr, "cannot open %s\n", input->c_str());
      return 1;
    }
  }
  std::istream& in = file_input.is_open() ? file_input : std::cin;

  uint64_t inserted = 0;
  uint64_t line_number = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string piece;
    std::vector<std::string> fields;
    while (std::getline(ss, piece, ',')) fields.push_back(piece);
    if (fields.size() != 3 && fields.size() != 5) {
      std::fprintf(stderr, "line %llu: expected 3 or 5 fields\n",
                   static_cast<unsigned long long>(line_number));
      return 1;
    }
    const TupleId tid = std::strtoull(fields[0].c_str(), nullptr, 10);
    const double xlo = std::strtod(fields[1].c_str(), nullptr);
    const double xhi = std::strtod(fields[2].c_str(), nullptr);
    Rect rect = fields.size() == 3
                    ? Rect::Segment1D(xlo, xhi)
                    : Rect(xlo, xhi, std::strtod(fields[3].c_str(), nullptr),
                           std::strtod(fields[4].c_str(), nullptr));
    if (auto st = index->Insert(rect, tid); !st.ok()) {
      std::fprintf(stderr, "line %llu: insert failed: %s\n",
                   static_cast<unsigned long long>(line_number),
                   st.ToString().c_str());
      return 1;
    }
    ++inserted;
  }
  if (auto st = index->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("inserted %llu records (index now holds %llu)\n",
              static_cast<unsigned long long>(inserted),
              static_cast<unsigned long long>(index->size()));
  return 0;
}

int CmdQuery(const Args& args, const std::string& file) {
  const auto rect_arg = args.Get("rect");
  if (!rect_arg) return Usage();
  const auto coords = ParseColons(*rect_arg, 4);
  if (!coords) {
    std::fprintf(stderr, "bad --rect (want xlo:xhi:ylo:yhi)\n");
    return 2;
  }
  const Rect query((*coords)[0], (*coords)[1], (*coords)[2], (*coords)[3]);
  if (!query.valid()) {
    std::fprintf(stderr, "invalid query rectangle\n");
    return 2;
  }
  size_t limit = 20;
  if (!GetSize(args, "limit", &limit)) return 1;

  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  std::vector<rtree::SearchHit> hits;
  uint64_t nodes = 0;
  if (auto st = index->Search(query, &hits, &nodes); !st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<TupleId> tids;
  (void)index->SearchTuples(query, &tids);
  std::printf("%zu records (%zu stored pieces), %llu index nodes accessed\n",
              tids.size(), hits.size(),
              static_cast<unsigned long long>(nodes));
  for (size_t i = 0; i < hits.size() && i < limit; ++i) {
    std::printf("  tid=%llu rect=%s\n",
                static_cast<unsigned long long>(hits[i].tid),
                hits[i].rect.ToString().c_str());
  }
  if (hits.size() > limit) {
    std::printf("  ... (%zu more; raise --limit)\n", hits.size() - limit);
  }
  return 0;
}

int CmdStats(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();
  std::printf("kind:    %s\n", IndexKindName(index->kind()));
  std::printf("records: %llu\n",
              static_cast<unsigned long long>(index->size()));
  std::printf("height:  %d\n", index->height());
  std::printf("bytes:   %llu\n",
              static_cast<unsigned long long>(index->index_bytes()));
  if (args.Get("dump")) {
    int depth = 0;
    if (!GetI32(args, "dump", &depth)) return 1;
    return index->tree()->DumpStructure(std::cout, depth).ok() ? 0 : 1;
  }
  auto stats = index->tree()->CollectLevelStats();
  if (stats.ok()) {
    for (size_t level = 0; level < stats->size(); ++level) {
      const auto& s = (*stats)[level];
      std::printf(
          "level %zu: %llu nodes, %llu entries, %llu spanning, "
          "avg region %.0fx%.0f\n",
          level, static_cast<unsigned long long>(s.nodes),
          static_cast<unsigned long long>(s.branch_entries),
          static_cast<unsigned long long>(s.spanning_entries),
          s.avg_region_width, s.avg_region_height);
    }
  }
  const rtree::LatchStats latch = index->tree()->latch_stats();
  static const char* const kModeNames[3] = {"read", "write", "exclusive"};
  for (int m = 0; m < 3; ++m) {
    std::printf("gate %-9s %llu enters, %llu blocked, %llu us waiting\n",
                kModeNames[m],
                static_cast<unsigned long long>(latch.gate_enters[m]),
                static_cast<unsigned long long>(latch.gate_blocked[m]),
                static_cast<unsigned long long>(latch.gate_wait_us[m]));
  }
  std::printf("node latch:     %llu acquires, %llu blocked, %llu us waiting\n",
              static_cast<unsigned long long>(latch.latch_acquires),
              static_cast<unsigned long long>(latch.latch_blocked),
              static_cast<unsigned long long>(latch.latch_wait_us));
  const storage::StorageStats& storage = index->storage_stats();
  std::printf("journal:        %llu checkpoints, %llu pages, %llu bytes\n",
              static_cast<unsigned long long>(storage.checkpoints),
              static_cast<unsigned long long>(storage.journaled_pages),
              static_cast<unsigned long long>(storage.journal_bytes));
  std::printf("commit:         %llu requests, %llu batches, %llu us "
              "lingering\n",
              static_cast<unsigned long long>(storage.commit_requests),
              static_cast<unsigned long long>(storage.commit_batches),
              static_cast<unsigned long long>(storage.commit_linger_us));
  return 0;
}

int CmdVerify(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const Status st = (*opened)->CheckInvariants();
  if (!st.ok()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("ok: all structural invariants hold\n");
  return 0;
}

int CmdCheck(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  check::CheckOptions options;
  auto flag = [&args](const char* key) {
    const auto v = args.Get(key);
    return v.has_value() && *v != "0";
  };
  options.expect_min_fill = flag("min-fill");
  options.check_mbr_tightness = flag("tight");
  options.strict_spanning_placement = flag("strict");
  options.check_spanning_quota = !flag("no-quota");
  options.check_page_accounting = !flag("no-pages");
  if (!GetSize(args, "max-violations", &options.max_violations)) return 1;

  auto report = (*opened)->CheckStructure(options);
  if (!report.ok()) {
    std::fprintf(stderr, "check failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  return report->ok() ? 0 : 1;
}

int CmdBenchParallel(const Args& args, const std::string& file) {
  size_t num_queries = 1000;
  double qar = 0.01;
  uint64_t seed = 42;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (!GetSize(args, "queries", &num_queries, /*require_positive=*/true) ||
      !GetF64(args, "qar", &qar, /*require_positive=*/true) ||
      !GetU64(args, "seed", &seed)) {
    return 1;
  }
  if (auto v = args.Get("threads")) {
    thread_counts.clear();
    std::stringstream ss(*v);
    std::string piece;
    while (std::getline(ss, piece, ',')) {
      uint64_t n = 0;
      if (!ParseU64Value(piece, &n) || n == 0 ||
          n > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        std::fprintf(stderr, "--threads: expected positive integers, got '%s'\n",
                     piece.c_str());
        return 1;
      }
      thread_counts.push_back(static_cast<int>(n));
    }
    if (thread_counts.empty()) return Usage();
  }

  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();
  if (!index->tree()->root_region_valid()) {
    std::fprintf(stderr, "index is empty; nothing to query\n");
    return 1;
  }

  // Square queries covering `qar` of the root region's area, uniformly
  // placed (the paper's QAR query model).
  const Rect region = index->tree()->root_region();
  const double width = region.x.hi - region.x.lo;
  const double height = region.y.hi - region.y.lo;
  const double side = std::sqrt(qar * width * height);
  Rng rng(seed);
  std::vector<Rect> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const double x = rng.Uniform(region.x.lo,
                                 std::max(region.x.lo, region.x.hi - side));
    const double y = rng.Uniform(region.y.lo,
                                 std::max(region.y.lo, region.y.hi - side));
    queries.emplace_back(x, x + side, y, y + side);
  }

  using Clock = std::chrono::steady_clock;

  // Serial baseline.
  std::vector<std::vector<rtree::SearchHit>> serial(num_queries);
  const auto serial_start = Clock::now();
  for (size_t i = 0; i < num_queries; ++i) {
    if (auto st = index->tree()->Search(queries[i], &serial[i]); !st.ok()) {
      std::fprintf(stderr, "search failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const double serial_secs =
      std::chrono::duration<double>(Clock::now() - serial_start).count();
  std::printf("%zu queries, qar=%g, side=%.1f\n", num_queries, qar, side);
  std::printf("%8s %12s %10s %9s\n", "threads", "queries/s", "time(s)",
              "speedup");
  std::printf("%8s %12.0f %10.3f %9s\n", "serial",
              num_queries / serial_secs, serial_secs, "1.00x");

  for (int threads : thread_counts) {
    std::vector<exec::BatchResult> results;
    const auto start = Clock::now();
    if (auto st = index->SearchBatch(queries, &results, threads); !st.ok()) {
      std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();

    for (size_t i = 0; i < num_queries; ++i) {
      const auto& hits = results[i].hits;
      if (hits.size() != serial[i].size() ||
          !std::equal(hits.begin(), hits.end(), serial[i].begin(),
                      [](const rtree::SearchHit& a,
                         const rtree::SearchHit& b) {
                        return a.tid == b.tid && a.rect == b.rect;
                      })) {
        std::fprintf(stderr,
                     "MISMATCH: query %zu differs from serial at %d "
                     "threads\n",
                     i, threads);
        return 1;
      }
    }
    std::printf("%8d %12.0f %10.3f %8.2fx\n", threads, num_queries / secs,
                secs, serial_secs / secs);
  }
  std::printf("all parallel result sets identical to serial\n");
  return 0;
}

int CmdScrub(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  storage::ScrubOptions options;
  if (!GetU64(args, "rate", &options.max_extents_per_second)) return 1;
  if (auto v = args.Get("no-quarantine"); v.has_value() && *v != "0") {
    options.quarantine_damaged = false;
  }
  auto report = (*opened)->Scrub(options);
  if (!report.ok()) {
    std::fprintf(stderr, "scrub failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  if (!report->clean() && options.quarantine_damaged) {
    std::printf("%zu page(s) quarantined; partial searches will skip them "
                "— run `segidx salvage` to rebuild\n",
                (*opened)->pager()->quarantined_count());
  }
  return report->clean() ? 0 : 1;
}

int CmdSalvage(const Args& args, const std::string& file) {
  const auto out = args.Get("out");
  if (!out) return Usage();
  core::SalvageOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind || core::IsSkeleton(*kind)) {
      std::fprintf(stderr,
                   "salvage rebuild kind must be rtree or srtree\n");
      return 2;
    }
    options.rebuild_kind = *kind;
  }
  auto report = core::SalvageFile(file, *out, options);
  if (!report.ok()) {
    std::fprintf(stderr, "salvage failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  // Prove the rebuilt index is sound before anyone relies on it.
  auto reopened = IntervalIndex::OpenFromDisk(*out, IndexOptions());
  if (!reopened.ok()) {
    std::fprintf(stderr, "rebuilt index does not open: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  if (auto st = (*reopened)->CheckInvariants(); !st.ok()) {
    std::fprintf(stderr, "rebuilt index fails structure check: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("rebuilt index at %s passes all structural checks\n",
              out->c_str());
  return 0;
}

// SIGINT/SIGTERM ask `segidx serve` to shut down gracefully.
volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int) { g_stop_serving = 1; }

int CmdServe(const Args& args, const std::string& file) {
  server::ServerOptions sopts;
  if (auto v = args.Get("host")) sopts.host = *v;
  uint64_t port = 0;
  size_t max_batch = sopts.max_batch;
  if (!GetU64(args, "port", &port) ||
      !GetI32(args, "threads", &sopts.search_threads,
              /*require_positive=*/true) ||
      !GetI32(args, "writers", &sopts.write_threads,
              /*require_positive=*/true) ||
      !GetSize(args, "max-batch", &max_batch, /*require_positive=*/true) ||
      !GetSize(args, "queue-depth", &sopts.max_queue_depth,
               /*require_positive=*/true) ||
      !GetI32(args, "max-inflight", &sopts.max_inflight_per_conn,
              /*require_positive=*/true) ||
      !GetU64(args, "commit-every", &sopts.commit_every) ||
      !GetU64(args, "budget-us", &sopts.default_budget_us) ||
      !GetU64(args, "scrub-interval-ms", &sopts.scrub_interval_ms) ||
      !GetU64(args, "scrub-rate", &sopts.scrub_extents_per_second)) {
    return 1;
  }
  if (port > 65535) {
    std::fprintf(stderr, "--port: %llu is not a TCP port\n",
                 static_cast<unsigned long long>(port));
    return 1;
  }
  sopts.port = static_cast<uint16_t>(port);
  sopts.max_batch = max_batch;

  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  server::Server server(index.get(), sopts);
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Scripts (and the serving integration test) parse this line for the
  // bound port, so flush it before blocking.
  std::printf("serving %s on %s:%u\n", file.c_str(), sopts.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_serving) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down\n");
  server.Stop();
  if (auto st = index->Close(); !st.ok()) {
    std::fprintf(stderr, "final checkpoint failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdBenchResilience(const Args& args) {
  uint64_t num_records = 2000;
  size_t num_queries = 64;
  size_t repeats = 30;
  int threads = 2;
  uint64_t delay_us = 50;
  uint64_t deadline_us = 2000;
  uint64_t seed = 42;
  if (!GetU64(args, "records", &num_records, /*require_positive=*/true) ||
      !GetSize(args, "queries", &num_queries, /*require_positive=*/true) ||
      !GetSize(args, "repeats", &repeats, /*require_positive=*/true) ||
      !GetI32(args, "threads", &threads, /*require_positive=*/true) ||
      !GetU64(args, "delay-us", &delay_us) ||
      !GetU64(args, "deadline-us", &deadline_us) ||
      !GetU64(args, "seed", &seed)) {
    return 1;
  }

  IndexOptions options;
  // A small pool forces physical reads, so the injected device latency is
  // actually felt by the search path.
  options.pager.buffer_pool_bytes = 16 * 1024;
  if (!GetSize(args, "pool", &options.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }

  auto device = std::make_unique<storage::FaultInjectingBlockDevice>(
      std::make_unique<storage::MemoryBlockDevice>());
  storage::FaultInjectingBlockDevice* dev = device.get();
  auto created = IntervalIndex::CreateWithDevice(
      IndexKind::kSRTree, std::move(device), options);
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(created).value();

  Rng rng(seed);
  for (uint64_t i = 0; i < num_records; ++i) {
    const double s = rng.Uniform(0.0, 1000.0);
    const Rect rect(Interval(s, s + rng.Uniform(0.5, 40.0)),
                    Interval::Point(rng.Uniform(0.0, 1000.0)));
    if (auto st = index->Insert(rect, i + 1); !st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = index->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::vector<Rect> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const double x = rng.Uniform(0.0, 950.0);
    const double y = rng.Uniform(0.0, 950.0);
    queries.emplace_back(x, x + 50.0, y, y + 50.0);
  }

  dev->SetReadDelay(std::chrono::microseconds(delay_us));

  using Clock = std::chrono::steady_clock;
  auto percentile = [](std::vector<double> ms, double p) {
    std::sort(ms.begin(), ms.end());
    const size_t idx = static_cast<size_t>(p * (ms.size() - 1) + 0.5);
    return ms[idx];
  };
  // One measured pass: `repeats` batches, recording each batch's wall time
  // and how many entries timed out.
  auto run = [&](bool with_deadline, std::vector<double>* batch_ms,
                 uint64_t* exceeded) -> bool {
    for (size_t r = 0; r < repeats; ++r) {
      rtree::SearchOptions so;
      if (with_deadline) {
        so.deadline = Clock::now() + std::chrono::microseconds(deadline_us);
      }
      std::vector<exec::BatchResult> results;
      const auto t0 = Clock::now();
      const Status st = index->SearchBatch(queries, so, &results, threads);
      batch_ms->push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      if (!st.ok() && st.code() != StatusCode::kDeadlineExceeded) {
        std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
        return false;
      }
      for (const exec::BatchResult& res : results) {
        if (res.status.code() == StatusCode::kDeadlineExceeded) ++*exceeded;
      }
    }
    return true;
  };

  std::vector<double> base_ms, deadline_ms;
  uint64_t base_exceeded = 0, deadline_exceeded = 0;
  if (!run(false, &base_ms, &base_exceeded)) return 1;
  if (!run(true, &deadline_ms, &deadline_exceeded)) return 1;

  char json[640];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"resilience\", \"records\": %llu, \"queries\": %zu, "
      "\"repeats\": %zu, \"threads\": %d, \"read_delay_us\": %llu, "
      "\"deadline_us\": %llu, "
      "\"no_deadline\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f}, "
      "\"with_deadline\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
      "\"deadline_exceeded_entries\": %llu}}\n",
      static_cast<unsigned long long>(num_records), num_queries, repeats,
      threads, static_cast<unsigned long long>(delay_us),
      static_cast<unsigned long long>(deadline_us),
      percentile(base_ms, 0.50), percentile(base_ms, 0.99),
      percentile(deadline_ms, 0.50), percentile(deadline_ms, 0.99),
      static_cast<unsigned long long>(deadline_exceeded));
  std::fputs(json, stdout);
  if (auto out = args.Get("out")) {
    std::ofstream f(*out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    f << json;
  }
  return 0;
}

// Mixed read/write throughput: concurrent writers through exec::WritePool
// (group-commit cadence) with reader threads searching concurrently.
// Runs in memory on a uniform-interval workload; emits a JSON summary
// with per-writer-count insert throughput, the 4-writer speedup, reader
// throughput, and the group-commit amortization ratio.
int CmdBenchMixed(const Args& args) {
  uint64_t num_records = 40000;
  int readers = 2;
  uint64_t commit_every = 1024;
  uint64_t seed = 42;
  if (!GetU64(args, "records", &num_records, /*require_positive=*/true) ||
      !GetI32(args, "readers", &readers, /*require_positive=*/true) ||
      !GetU64(args, "commit-every", &commit_every) ||
      !GetU64(args, "seed", &seed)) {
    return 1;
  }

  // Uniform intervals over the CLI bench domain (same family as the
  // paper's I1 workload).
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    const double s = rng.Uniform(0.0, 100000.0);
    rects.emplace_back(Interval(s, s + rng.Uniform(1.0, 200.0)),
                       Interval::Point(rng.Uniform(0.0, 100000.0)));
  }
  const size_t preload_count = rects.size() / 2;
  std::vector<Rect> queries;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.Uniform(0.0, 99000.0);
    const double y = rng.Uniform(0.0, 99000.0);
    queries.emplace_back(x, x + 1000.0, y, y + 1000.0);
  }

  struct Row {
    int writers;
    double inserts_per_sec;
    double queries_per_sec;
    uint64_t commit_requests;
    uint64_t commit_batches;
    rtree::LatchStats latch;  // Contention counters for this run's index.
  };
  std::vector<Row> rows;
  for (int writers : {1, 2, 4}) {
    IndexOptions options;
    auto created =
        IntervalIndex::CreateInMemory(IndexKind::kRTree, options);
    if (!created.ok()) {
      std::fprintf(stderr, "create failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    auto index = std::move(created).value();
    std::vector<std::pair<Rect, TupleId>> preload;
    preload.reserve(preload_count);
    for (size_t i = 0; i < preload_count; ++i) {
      preload.emplace_back(rects[i], static_cast<TupleId>(i + 1));
    }
    if (auto st = index->BulkLoad(std::move(preload)); !st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::vector<exec::WriteOp> ops;
    ops.reserve(rects.size() - preload_count);
    for (size_t i = preload_count; i < rects.size(); ++i) {
      ops.push_back(exec::WriteOp{rects[i], static_cast<TupleId>(i + 1)});
    }

    exec::WritePoolOptions wopts;
    wopts.num_threads = writers;
    wopts.commit_every = commit_every;
    IntervalIndex* idx = index.get();
    exec::WritePool pool(
        idx->tree(), [idx] { return idx->Commit(); }, wopts);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> queries_done{0};
    std::atomic<bool> reader_failed{false};
    std::vector<std::thread> reader_threads;
    for (int r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        size_t qi = static_cast<size_t>(r);
        std::vector<rtree::SearchHit> hits;
        while (!stop.load(std::memory_order_relaxed)) {
          hits.clear();
          if (!idx->Search(queries[qi % queries.size()], &hits).ok()) {
            reader_failed.store(true);
            return;
          }
          qi += static_cast<size_t>(readers);
          queries_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const Status st = pool.ApplyBatch(ops);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    stop.store(true);
    for (std::thread& t : reader_threads) t.join();
    if (!st.ok()) {
      std::fprintf(stderr, "apply batch failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (reader_failed.load()) {
      std::fprintf(stderr, "reader thread failed\n");
      return 1;
    }
    if (idx->size() != rects.size()) {
      std::fprintf(stderr, "record count mismatch after %d writers\n",
                   writers);
      return 1;
    }
    if (auto check = idx->CheckInvariants(); !check.ok()) {
      std::fprintf(stderr, "invariant violation after %d writers: %s\n",
                   writers, check.ToString().c_str());
      return 1;
    }
    rows.push_back(Row{writers, static_cast<double>(ops.size()) / secs,
                       static_cast<double>(queries_done.load()) / secs,
                       idx->storage_stats().commit_requests,
                       idx->storage_stats().commit_batches,
                       idx->tree()->latch_stats()});
    const rtree::LatchStats& latch = rows.back().latch;
    std::printf(
        "%d writer(s): %.0f inserts/s, %.0f queries/s, "
        "%llu commits in %llu batches\n"
        "  contention: write gate %llu/%llu blocked (%llu us), "
        "node latch %llu/%llu blocked (%llu us)\n",
        writers, rows.back().inserts_per_sec, rows.back().queries_per_sec,
        static_cast<unsigned long long>(rows.back().commit_requests),
        static_cast<unsigned long long>(rows.back().commit_batches),
        static_cast<unsigned long long>(latch.gate_blocked[1]),
        static_cast<unsigned long long>(latch.gate_enters[1]),
        static_cast<unsigned long long>(latch.gate_wait_us[1]),
        static_cast<unsigned long long>(latch.latch_blocked),
        static_cast<unsigned long long>(latch.latch_acquires),
        static_cast<unsigned long long>(latch.latch_wait_us));
  }

  const double speedup_4w =
      rows.back().inserts_per_sec / rows.front().inserts_per_sec;
  std::string json = "{\"bench\": \"mixed\", \"records\": " +
                     std::to_string(num_records) +
                     ", \"readers\": " + std::to_string(readers) +
                     ", \"commit_every\": " + std::to_string(commit_every) +
                     ", \"runs\": [";
  char buf[512];
  for (size_t i = 0; i < rows.size(); ++i) {
    const rtree::LatchStats& latch = rows[i].latch;
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"writers\": %d, \"inserts_per_sec\": %.0f, "
        "\"queries_per_sec\": %.0f, \"commit_requests\": %llu, "
        "\"commit_batches\": %llu, \"gate_write_enters\": %llu, "
        "\"gate_write_blocked\": %llu, \"gate_write_wait_us\": %llu, "
        "\"gate_read_blocked\": %llu, \"node_latch_acquires\": %llu, "
        "\"node_latch_blocked\": %llu, \"node_latch_wait_us\": %llu}",
        i == 0 ? "" : ", ", rows[i].writers, rows[i].inserts_per_sec,
        rows[i].queries_per_sec,
        static_cast<unsigned long long>(rows[i].commit_requests),
        static_cast<unsigned long long>(rows[i].commit_batches),
        static_cast<unsigned long long>(latch.gate_enters[1]),
        static_cast<unsigned long long>(latch.gate_blocked[1]),
        static_cast<unsigned long long>(latch.gate_wait_us[1]),
        static_cast<unsigned long long>(latch.gate_blocked[0]),
        static_cast<unsigned long long>(latch.latch_acquires),
        static_cast<unsigned long long>(latch.latch_blocked),
        static_cast<unsigned long long>(latch.latch_wait_us));
    json += buf;
  }
  std::snprintf(buf, sizeof(buf), "], \"speedup_4_writers\": %.2f}\n",
                speedup_4w);
  json += buf;
  std::fputs(json.c_str(), stdout);
  if (auto out = args.Get("out")) {
    std::ofstream f(*out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    f << json;
  }
  return 0;
}

int CmdScrubTorture(const Args& args) {
  torture::ScrubTortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetU64(args, "records", &options.records,
              /*require_positive=*/true) ||
      !GetU64(args, "rounds", &options.rounds, /*require_positive=*/true) ||
      !GetU64(args, "corrupt", &options.max_corrupt_per_round,
              /*require_positive=*/true) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunScrubTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "scrub torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "corrupted %llu pages over %llu rounds; partial searches dropped "
      "%llu records, salvage recovered %llu\n",
      static_cast<unsigned long long>(report->pages_corrupted),
      static_cast<unsigned long long>(report->rounds_run),
      static_cast<unsigned long long>(report->records_skipped),
      static_cast<unsigned long long>(report->records_salvaged));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu rounds violated resilience guarantees\n",
                 report->failures.size());
    return 1;
  }
  std::printf(
      "every round: scrub found exactly the damage, searches stayed "
      "partial-correct, salvage recovered all reachable records\n");
  return 0;
}

int CmdServeTorture(const Args& args) {
  torture::ServeTortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetI32(args, "writers", &options.writers,
              /*require_positive=*/true) ||
      !GetI32(args, "readers", &options.readers) ||
      !GetU64(args, "ops", &options.ops_per_writer,
              /*require_positive=*/true) ||
      !GetI32(args, "chaos-rounds", &options.chaos_rounds) ||
      !GetI32(args, "crash-rounds", &options.crash_rounds) ||
      !GetI32(args, "crashes", &options.crashes_per_round,
              /*require_positive=*/true) ||
      !GetF64(args, "reset-prob", &options.reset_prob) ||
      !GetF64(args, "delay-prob", &options.delay_prob) ||
      !GetF64(args, "short-write-prob", &options.short_write_prob) ||
      !GetU64(args, "commit-every", &options.server_commit_every,
              /*require_positive=*/true) ||
      !GetU64(args, "deadline-ms", &options.client_deadline_ms,
              /*require_positive=*/true) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunServeTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "serve torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "ran %llu rounds, %llu server crashes; clients: %llu reconnects, "
      "%llu retries over %llu injected transport faults; acked %llu "
      "inserts + %llu deletes (%llu in doubt), %llu dedup replays; "
      "%llu searches bracket-checked\n",
      static_cast<unsigned long long>(report->rounds_run),
      static_cast<unsigned long long>(report->server_crashes),
      static_cast<unsigned long long>(report->client_reconnects),
      static_cast<unsigned long long>(report->client_retries),
      static_cast<unsigned long long>(report->transport_faults),
      static_cast<unsigned long long>(report->acked_inserts),
      static_cast<unsigned long long>(report->acked_deletes),
      static_cast<unsigned long long>(report->unresolved_ops),
      static_cast<unsigned long long>(report->dedup_hits),
      static_cast<unsigned long long>(report->searches_checked));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu exactly-once or history violations\n",
                 report->failures.size());
    return 1;
  }
  std::printf(
      "every acked write survived exactly once; no losses, duplicates, or "
      "resurrections; every search saw what was acked before it\n");
  return 0;
}

int CmdTorture(const Args& args) {
  if (auto mode = args.Get("mode"); mode.has_value()) {
    if (*mode == "scrub") return CmdScrubTorture(args);
    if (*mode == "serve") return CmdServeTorture(args);
    if (*mode != "crash") {
      std::fprintf(stderr, "--mode: expected crash, scrub, or serve; got "
                           "'%s'\n",
                   mode->c_str());
      return 2;
    }
  }
  torture::TortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetU64(args, "records", &options.records,
              /*require_positive=*/true) ||
      !GetU64(args, "checkpoint-every", &options.checkpoint_every,
              /*require_positive=*/true) ||
      !GetSize(args, "tear", &options.tear_bytes) ||
      !GetU64(args, "max-points", &options.max_fault_points) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunRecoveryTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "swept %llu fault points over ops [%llu, %llu), %llu checkpoints; "
      "%llu slot fallbacks, %llu journal replays\n",
      static_cast<unsigned long long>(report->fault_points_run),
      static_cast<unsigned long long>(report->first_fault_op),
      static_cast<unsigned long long>(report->total_ops),
      static_cast<unsigned long long>(report->checkpoints),
      static_cast<unsigned long long>(report->fallbacks),
      static_cast<unsigned long long>(report->journal_replays));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu fault points violated recovery guarantees\n",
                 report->failures.size());
    return 1;
  }
  std::printf("every crash point recovered to a consistent checkpoint\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) return Usage();
  if (args->command == "torture") return CmdTorture(*args);
  if (args->command == "bench-resilience") {
    return CmdBenchResilience(*args);
  }
  if (args->command == "bench-mixed") return CmdBenchMixed(*args);
  const auto file = args->Get("file");
  if (!file) return Usage();

  if (args->command == "create") return CmdCreate(*args, *file);
  if (args->command == "insert") return CmdInsert(*args, *file);
  if (args->command == "query") return CmdQuery(*args, *file);
  if (args->command == "stats") return CmdStats(*args, *file);
  if (args->command == "verify") return CmdVerify(*args, *file);
  if (args->command == "check") return CmdCheck(*args, *file);
  if (args->command == "bench-parallel") {
    return CmdBenchParallel(*args, *file);
  }
  if (args->command == "scrub") return CmdScrub(*args, *file);
  if (args->command == "salvage") return CmdSalvage(*args, *file);
  if (args->command == "serve") return CmdServe(*args, *file);
  return Usage();
}
