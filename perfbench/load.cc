// perfbench_load — the load generator and answer checker behind
// perfbench/run.py. One closed-loop process drives the shipped
// authidx_server over loopback sockets; `probe` calls the library
// in-process on a stopped server's store (layer timings and the printed
// index). Every subcommand prints one JSON object on stdout.
//
//   perfbench_load prepare  --seed N --db DIR
//   perfbench_load browse|lookup|ingest --seed N --seconds S --trace 0|1
//                  --port P --http-port H --server-pid PID [--spans-out FILE]
//                  [--rtt-out FILE]
//   perfbench_load stats    --port P
//   perfbench_load quiet    --seconds MAX
//   perfbench_load probe    --seed N --db DIR
//   perfbench_load selftest
//
// The expected answers are computed here from the generated corpus with
// this file's own folding and collation code, never with the program's.

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "authidx/core/author_index.h"
#include "authidx/format/typeset.h"
#include "authidx/net/client.h"
#include "authidx/parse/tsv.h"
#include "authidx/storage/engine.h"
#include "authidx/text/collate.h"
#include "authidx/workload/corpus.h"
#include "authidx/workload/namegen.h"

namespace {

using namespace authidx;

// ---------------------------------------------------------------------------
// Corpus and clocks.

constexpr size_t kEntries = 200000;
constexpr size_t kAuthors = 20000;
constexpr double kAuthorSkew = 0.8;
constexpr size_t kAddBatch = 32;
// Entries an `ingest` run adds per second of --seconds, a fixed total that
// takes about that long on a 4-core host: every run grows its store by the
// same amount, whatever the write path's speed.
constexpr size_t kAddEntriesPerSecond = 50000;
// Rounds of the browse slot pattern in one client's list: a pass over the
// list takes about a second, so a run repeats every query several times.
constexpr int kBrowseRounds = 5;
// A host is quiet when other tenants take under this share of our busy
// CPU time; quiet spells read 0-2 %.
constexpr double kQuietSteal = 0.05;
constexpr size_t kExhaustiveLimit = 5000;  // Above query::kMaxTopKResults.
constexpr size_t kRelevanceSamples = 48;

workload::CorpusOptions CorpusFor(uint64_t seed) {
  workload::CorpusOptions options;
  options.entries = kEntries;
  options.authors = kAuthors;
  options.author_skew = kAuthorSkew;
  options.seed = 0x5eed + seed * 0x9E3779B97F4A7C15ULL;
  return options;
}

double MonoS() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  double lo = *std::max_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

// ---------------------------------------------------------------------------
// Independent answer model: ASCII folding and the collation documented in
// text/collate.h (case-insensitive, punctuation ignored at the primary
// level, digit runs compared numerically).

std::string Fold(std::string_view s) {
  std::string out;
  for (char c : s) {
    char l = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    if (l == ' ' || l == '\t') {
      if (!out.empty() && out.back() != ' ') {
        out.push_back(' ');
      }
    } else {
      out.push_back(l);
    }
  }
  while (!out.empty() && out.back() == ' ') {
    out.pop_back();
  }
  return out;
}

// Primary collation key: letters folded, digit runs as <length><digits>
// without leading zeros, single spaces between words, the rest dropped.
std::string PrimaryKey(std::string_view s) {
  std::string key;
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (c >= '0' && c <= '9') {
      size_t start = i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        ++i;
      }
      std::string_view run = s.substr(start, i - start);
      while (run.size() > 1 && run.front() == '0') {
        run.remove_prefix(1);
      }
      key.push_back(static_cast<char>('0' + run.size()));
      key.append(run);
      continue;
    }
    char l = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    if (l >= 'a' && l <= 'z') {
      key.push_back(l);
    } else if ((l == ' ' || l == '\t') && !key.empty() && key.back() != ' ') {
      key.push_back(' ');
    }
    ++i;
  }
  while (!key.empty() && key.back() == ' ') {
    key.pop_back();
  }
  return key;
}

std::string GroupKeyOf(const AuthorName& a) {
  std::string key = a.surname + ", " + a.given;
  if (!a.suffix.empty()) {
    key += ", " + a.suffix;
  }
  return key;
}

std::string CitationText(const Citation& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u:%u (%u)", c.volume, c.page, c.year);
  return buf;
}

struct Model {
  std::unordered_map<std::string, uint64_t> by_surname;  // Folded surname.
  std::map<std::string, uint64_t> by_group;              // Folded group key.
  std::vector<std::string> group_display;                // Distinct groups.
  std::vector<std::string> surnames;                     // Distinct, as printed.

  explicit Model(const std::vector<Entry>& corpus) {
    for (const Entry& e : corpus) {
      std::string folded_surname = Fold(e.author.surname);
      if (by_surname[folded_surname]++ == 0) {
        surnames.push_back(e.author.surname);
      }
      std::string display = GroupKeyOf(e.author);
      if (by_group[Fold(display)]++ == 0) {
        group_display.push_back(display);
      }
    }
  }

  uint64_t PrefixCount(const std::string& folded_prefix) const {
    uint64_t total = 0;
    for (auto it = by_group.lower_bound(folded_prefix);
         it != by_group.end() && it->first.compare(0, folded_prefix.size(),
                                                   folded_prefix) == 0;
         ++it) {
      total += it->second;
    }
    return total;
  }
};

// ---------------------------------------------------------------------------
// Query classes and the operations a run repeats.

enum Cls { kSurname, kPrefix, kFuzzy, kTitle, kRelevance, kRelFiltered, kFullName, kClsCount };
const char* const kClsName[kClsCount] = {"surname",   "prefix",
                                         "fuzzy",     "title",
                                         "relevance", "relevance_filtered",
                                         "fullname"};

struct Op {
  Cls cls = kSurname;
  std::string text;
  size_t limit = 10;
  bool check_total = false;
  uint64_t expect_total = 0;
  bool at_least = false;  // Ingest reads: the group may only grow.
  uint32_t year_lo = 0;
  uint32_t year_hi = 0;
};

std::vector<std::string> TitleWords(const std::string& title) {
  static const char* const kStop[] = {"the", "of", "and", "in", "for", "a",
                                      "an", "to", "under", "after", "on",
                                      "its", "from", "new", "case"};
  std::vector<std::string> words;
  std::string cur;
  auto flush = [&] {
    if (cur.size() >= 3 &&
        std::none_of(std::begin(kStop), std::end(kStop),
                     [&](const char* s) { return cur == s; })) {
      words.push_back(cur);
    }
    cur.clear();
  };
  for (char c : title) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')) {
      cur.push_back(static_cast<char>(c >= 'a' ? c : c - 'A' + 'a'));
    } else {
      flush();
    }
  }
  flush();
  return words;
}

// Browse repeats rounds of a fixed pattern of class slots, and each class
// walks a fixed cycle over the generator's vocabulary, so every seed runs
// the same mix of query shapes; the seed picks the corpus they run
// against. Slots per class in one round, in kClsName order. The weights
// are an assumption, not a measured query mix (perfbench/README.md).
constexpr int kBrowseSlots[kClsCount] = {10, 4, 6, 8, 8, 4, 0};

// The `n`-th query of class `cls`. `rng` and `titles` are seed-independent.
Op MakeBrowseOp(Cls cls, size_t n, const std::vector<std::string>& surnames,
                const Model& model, std::mt19937_64& rng,
                workload::NameGenerator& titles) {
  Op op;
  op.cls = cls;
  op.limit = 10 + n % 11;
  std::string lim = " limit:" + std::to_string(op.limit);
  switch (cls) {
    case kSurname: {
      const std::string& s = surnames[n % surnames.size()];
      op.text = "author:" + s + lim;
      op.check_total = true;
      op.expect_total = model.by_surname.at(Fold(s));
      break;
    }
    case kPrefix: {
      std::string s = Fold(surnames[(n * 7) % surnames.size()]);
      std::string prefix = s.substr(0, n % 4 == 0 ? 1 : 2);
      op.text = "author:" + prefix + "*" + lim;
      op.check_total = true;
      op.expect_total = model.PrefixCount(prefix);
      break;
    }
    case kFuzzy: {
      std::string s = Fold(surnames[(n * 11) % surnames.size()]);
      if (s.size() > 3) {
        s[1 + rng() % (s.size() - 2)] = static_cast<char>('a' + rng() % 26);
      }
      op.text = "author~" + s + lim;
      break;
    }
    case kTitle:
    case kRelevance:
    case kRelFiltered: {
      std::vector<std::string> words;
      while (words.size() < 2) {
        words = TitleWords(titles.NextTitle());
      }
      std::shuffle(words.begin(), words.end(), rng);
      size_t terms = (cls == kRelevance && n % 2 == 0) ? 1 : 2;
      for (size_t i = 0; i < terms; ++i) {
        op.text += words[i] + " ";
      }
      if (cls == kRelFiltered) {
        op.year_lo = 1966 + static_cast<uint32_t>(rng() % 20);
        op.year_hi = op.year_lo + 4 + static_cast<uint32_t>(rng() % 6);
        op.text += "year:" + std::to_string(op.year_lo) + ".." +
                   std::to_string(op.year_hi) + " ";
      }
      if (cls != kTitle) {
        op.text += "order:relevance";
      }
      op.text += lim;
      break;
    }
    case kFullName:
    case kClsCount:
      break;
  }
  return op;
}

// The list one client thread cycles through in a run.
std::vector<Op> MakeOps(const std::string& workload, uint64_t seed, int thread,
                        const Model& model) {
  std::vector<Op> ops;
  if (workload == "lookup") {
    // Full-name lookups of groups drawn uniformly from the seed's store.
    std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(thread) * 7919ULL + 17);
    for (int i = 0; i < 4000; ++i) {
      Op op;
      op.cls = kFullName;
      op.limit = 10 + static_cast<size_t>(rng() % 11);
      const std::string& g = model.group_display[rng() % model.group_display.size()];
      op.text = "author:\"" + g + "\" limit:" + std::to_string(op.limit);
      op.check_total = true;
      op.expect_total = model.by_group.at(Fold(g));
      ops.push_back(std::move(op));
    }
    return ops;
  }
  std::vector<Cls> pattern;
  for (int c = 0; c < kClsCount; ++c) {
    pattern.insert(pattern.end(), static_cast<size_t>(kBrowseSlots[c]), static_cast<Cls>(c));
  }
  std::mt19937_64 shuffle_rng(0x5107);
  std::shuffle(pattern.begin(), pattern.end(), shuffle_rng);
  std::vector<std::string> surnames = model.surnames;
  std::sort(surnames.begin(), surnames.end());
  std::mt19937_64 rng(0xb10c + static_cast<uint64_t>(thread));
  workload::NameGenerator titles(0x7171 + static_cast<uint64_t>(thread));
  size_t next[kClsCount] = {};
  for (size_t& n : next) {
    n = static_cast<size_t>(thread) * 5;
  }
  for (int round = 0; round < kBrowseRounds; ++round) {
    for (Cls cls : pattern) {
      ops.push_back(MakeBrowseOp(cls, next[cls]++, surnames, model, rng, titles));
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Answer checks. Each returns an empty string when the answer is right.

uint32_t YearOfCitation(const std::string& citation) {
  size_t open = citation.rfind('(');
  if (open == std::string::npos) {
    return 0;
  }
  return static_cast<uint32_t>(std::strtoul(citation.c_str() + open + 1, nullptr, 10));
}

std::string CheckQueryAnswer(const Op& op, const net::WireQueryResult& r) {
  if (op.check_total) {
    bool ok = op.at_least ? r.total_matches >= op.expect_total
                          : r.total_matches == op.expect_total;
    if (!ok) {
      return "total " + std::to_string(r.total_matches) + " != expected " +
             std::to_string(op.expect_total) + " for " + op.text;
    }
    if (r.hits.size() != std::min<uint64_t>(op.limit, r.total_matches)) {
      return "page size " + std::to_string(r.hits.size()) + " for " + op.text;
    }
  }
  if (r.hits.size() > op.limit) {
    return "page longer than limit for " + op.text;
  }
  if (op.cls == kRelevance || op.cls == kRelFiltered) {
    for (size_t i = 1; i < r.hits.size(); ++i) {
      if (r.hits[i].score > r.hits[i - 1].score) {
        return "relevance scores increase down the page for " + op.text;
      }
    }
  }
  if (op.cls == kRelFiltered) {
    for (const net::WireHit& h : r.hits) {
      uint32_t y = YearOfCitation(h.citation);
      if (y < op.year_lo || y > op.year_hi) {
        return "hit year " + std::to_string(y) + " outside range for " + op.text;
      }
    }
  }
  return "";
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// A top-k page must equal the first k hits of the exhaustive ranking.
std::string CheckTopKPage(const std::string& text,
                          const std::vector<net::WireHit>& page,
                          const std::vector<net::WireHit>& exhaustive) {
  if (exhaustive.size() < page.size()) {
    return "exhaustive ranking shorter than the page for " + text;
  }
  for (size_t i = 0; i < page.size(); ++i) {
    if (page[i].id != exhaustive[i].id ||
        Bits(page[i].score) != Bits(exhaustive[i].score)) {
      return "top-k hit " + std::to_string(i) + " differs from exhaustive for " + text;
    }
  }
  return "";
}

std::string CheckCount(const char* what, uint64_t got, uint64_t want) {
  if (got == want) {
    return "";
  }
  return std::string(what) + ": " + std::to_string(got) + " != expected " +
         std::to_string(want);
}

struct PrintLayout {
  size_t author_width;
  size_t title_width;
  size_t citation_width;
  size_t gutter;
  size_t total_width() const {
    return author_width + gutter + title_width + gutter + citation_width;
  }
};

PrintLayout LayoutOf(const format::TypesetOptions& o) {
  return {o.author_width, o.title_width, o.citation_width, o.gutter};
}

// The printed index: the multiset of row citations equals the corpus's,
// every body line fits its columns, and surnames never decrease under
// the collation.
std::string CheckPrinted(const std::vector<format::Page>& pages,
                         const std::vector<Entry>& corpus, const PrintLayout& layout) {
  std::map<std::string, int64_t> citations;
  for (const Entry& e : corpus) {
    ++citations[CitationText(e.citation)];
  }
  const size_t cite_col = layout.author_width + layout.gutter + layout.title_width + layout.gutter;
  std::string last_surname_key;
  size_t rows = 0;
  for (const format::Page& page : pages) {
    std::istringstream in(page.text);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      ++n;
      if (line.size() > layout.total_width()) {
        return "page " + std::to_string(page.number) + " line wider than the page";
      }
      if (n <= 3 || line.size() <= cite_col) {
        continue;  // Heading, column header, rule, continuation or folio.
      }
      for (size_t c = layout.author_width; c < layout.author_width + layout.gutter; ++c) {
        if (line[c] != ' ') {
          return "author column overflows on page " + std::to_string(page.number);
        }
      }
      for (size_t c = cite_col - layout.gutter; c < cite_col; ++c) {
        if (line[c] != ' ') {
          return "title column overflows on page " + std::to_string(page.number);
        }
      }
      std::string citation = line.substr(cite_col);
      if (--citations[citation] < 0) {
        return "printed citation not in corpus: " + citation;
      }
      ++rows;
      std::string author = line.substr(0, layout.author_width);
      std::string surname_key = PrimaryKey(author.substr(0, author.find(',')));
      if (surname_key < last_surname_key) {
        return "surname order decreases at " + author;
      }
      last_surname_key = surname_key;
    }
  }
  if (rows != corpus.size()) {
    return "printed " + std::to_string(rows) + " rows for " +
           std::to_string(corpus.size()) + " entries";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Process and server observation.

// CPU time of the server's threads: the run time the scheduler charged
// each of them (/proc/<pid>/task/*/schedstat, ns). The server's threads
// live as long as it does, so none is lost between two readings.
double ProcCpuS(long pid) {
  std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  double ns = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(e.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns * 1e-9;
}

// Waits until the server has used at most 2 ms of CPU over a 200 ms
// window, or 30 s have passed.
void AwaitIdle(long pid) {
  double give_up = MonoS() + 30;
  double last = ProcCpuS(pid);
  while (MonoS() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    double now = ProcCpuS(pid);
    if (now - last <= 0.002) {
      return;
    }
    last = now;
  }
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += static_cast<double>(e.file_size(ec));
    }
  }
  return total;
}

// Prometheus text exposition -> name{labels} -> value.
using Scrape = std::map<std::string, double>;

Scrape ParseMetricsText(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      continue;
    }
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

std::string HttpGet(int port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (send(fd, req.data(), req.size(), 0) == static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
        body.append(buf, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  size_t split = body.find("\r\n\r\n");
  return split == std::string::npos ? "" : body.substr(split + 4);
}

double Delta(const Scrape& a, const Scrape& b, const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean of a histogram over the interval, in the histogram's unit / `div`.
double HistMean(const Scrape& a, const Scrape& b, const std::string& base, double div) {
  return Ratio(Delta(a, b, base + "_sum"), Delta(a, b, base + "_count")) / div;
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void Set(const std::string& name, double v) {
    for (auto& [n, old] : values) {
      if (n == name) {
        old = v;
        return;
      }
    }
    values.emplace_back(name, v);
  }
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::vector<std::pair<std::string, std::string>> extra;  // Raw JSON values.
  Metrics metrics;

  void Fail(const std::string& why) {
    if (correct) {
      error = why;
    }
    correct = false;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void PrintOutcome(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"error\": \"%s\"",
              o.correct ? "true" : "false", o.attempted, o.failed,
              JsonEscape(o.error).c_str());
  for (const auto& [k, v] : o.extra) {
    std::printf(", \"%s\": %s", k.c_str(), v.c_str());
  }
  std::printf(", \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : o.metrics.values) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Flags.

struct Flags {
  std::string cmd;
  std::string db;
  std::string spans_out;
  std::string rtt_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int port = 0;
  int http_port = 0;
  long server_pid = 0;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  if (argc < 2) {
    return false;
  }
  f->cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--db") f->db = v;
    else if (k == "--spans-out") f->spans_out = v;
    else if (k == "--rtt-out") f->rtt_out = v;
    else if (k == "--seed") f->seed = std::stoull(v);
    else if (k == "--seconds") f->seconds = std::stod(v);
    else if (k == "--trace") f->trace = v == "1";
    else if (k == "--port") f->port = std::stoi(v);
    else if (k == "--http-port") f->http_port = std::stoi(v);
    else if (k == "--server-pid") f->server_pid = std::stol(v);
    else return false;
  }
  return (argc % 2) == 0;
}

net::ClientOptions ClientFor(int port, bool trace) {
  net::ClientOptions options;
  options.port = port;
  options.trace = trace;
  options.io_timeout_ms = 60000;
  options.retry.max_attempts = 1;  // A failure counts; it is not hidden.
  return options;
}

// ---------------------------------------------------------------------------
// Wire workloads.

struct SpanStats {
  // Per class: stage name -> durations (us).
  std::map<std::string, std::vector<double>> stage[kClsCount];
  std::vector<double> socket_read, decode, queue_wait, wire, execute, execute_self;
};

// Self time of every span: duration minus its direct children.
std::vector<double> SelfTimes(const std::vector<obs::Trace::Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].duration_ns);
    for (size_t j = i + 1; j < spans.size() && spans[j].depth > spans[i].depth; ++j) {
      if (spans[j].depth == spans[i].depth + 1) {
        self[i] -= static_cast<double>(spans[j].duration_ns);
      }
    }
  }
  return self;
}

struct TraceRecord {
  Cls cls;
  double rtt_us;
  std::vector<obs::Trace::Span> spans;
};

void AddTrace(const TraceRecord& rec, SpanStats* s) {
  const auto& spans = rec.spans;
  if (spans.empty()) {
    return;
  }
  std::vector<double> self = SelfTimes(spans);
  double root_us = static_cast<double>(spans[0].duration_ns) / 1e3;
  s->wire.push_back(rec.rtt_us - root_us);
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    double us = static_cast<double>(sp.duration_ns) / 1e3;
    if (sp.depth == 1) {
      if (sp.name == "socket_read") s->socket_read.push_back(us);
      if (sp.name == "decode") s->decode.push_back(us);
      if (sp.name == "queue_wait") s->queue_wait.push_back(us);
      if (sp.name == "execute") s->execute.push_back(us);
    } else if (sp.name == "execute") {
      s->execute_self.push_back(self[i] / 1e3);
    } else if (sp.name == "parse" || sp.name == "plan" || sp.name == "candidates" ||
               sp.name == "filter" || sp.name == "order" || sp.name == "topk_prune") {
      if (rec.cls < kClsCount) {
        s->stage[rec.cls][sp.name].push_back(us);
      }
    }
  }
}

struct Phase {
  std::vector<double> rtt_us[kClsCount];
  // Per query of a client's list, its fastest round trip in the phase.
  std::vector<double> floor_us[kClsCount];
  std::vector<double> add_us;
  std::vector<std::pair<size_t, double>> batch_us;  // (batch, round trip)
  uint64_t queries = 0;
  uint64_t entries_added = 0;  // Entries in them.
  double user_bytes = 0;       // TSV bytes in them.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;
  double server_cpu_s = 0;
  double matches[kClsCount] = {};
  double hits[kClsCount] = {};
  std::vector<TraceRecord> traces;
  // Relevance pages kept for the exhaustive comparison after the run.
  std::map<std::string, std::vector<net::WireHit>> relevance_pages;
  std::string error;
};


// One closed-loop client thread. It makes whole passes over `ops` until
// `deadline`, so every query of the list is sent equally often, or stops
// at the next query once `*stop` is set.
void RunQueryClient(int port, bool trace, const std::vector<Op>& ops, double deadline,
                    const std::atomic<bool>* stop, Phase* out, std::mutex* mu) {
  net::Client client(ClientFor(port, trace));
  Phase local;
  std::vector<double> best(ops.size(), HUGE_VAL);
  for (size_t i = 0; !stop->load(); ++i) {
    if (i % ops.size() == 0 && MonoS() >= deadline) {
      break;
    }
    const Op& op = ops[i % ops.size()];
    ++local.attempted;
    double t0 = MonoS();
    Result<net::WireQueryResult> r = client.Query(op.text);
    double us = (MonoS() - t0) * 1e6;
    if (!r.ok()) {
      ++local.failed;
      if (local.error.empty()) local.error = op.text + ": " + r.status().ToString();
      continue;
    }
    best[i % ops.size()] = std::min(best[i % ops.size()], us);
    std::string bad = CheckQueryAnswer(op, *r);
    if (!bad.empty() && local.error.empty()) {
      local.error = bad;
    }
    local.rtt_us[op.cls].push_back(us);
    local.matches[op.cls] += static_cast<double>(r->total_matches);
    local.hits[op.cls] += static_cast<double>(r->hits.size());
    ++local.queries;
    if (op.cls == kRelevance && local.relevance_pages.size() < kRelevanceSamples) {
      local.relevance_pages.emplace(op.text, r->hits);
    }
    if (trace) {
      local.traces.push_back({op.cls, us, client.last_trace().spans});
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (std::isfinite(best[i])) local.floor_us[ops[i].cls].push_back(best[i]);
  }
  std::lock_guard<std::mutex> lock(*mu);
  for (int c = 0; c < kClsCount; ++c) {
    out->rtt_us[c].insert(out->rtt_us[c].end(), local.rtt_us[c].begin(), local.rtt_us[c].end());
    out->floor_us[c].insert(out->floor_us[c].end(), local.floor_us[c].begin(),
                            local.floor_us[c].end());
    out->matches[c] += local.matches[c];
    out->hits[c] += local.hits[c];
  }
  out->queries += local.queries;
  out->attempted += local.attempted;
  out->failed += local.failed;
  for (auto& t : local.traces) out->traces.push_back(std::move(t));
  for (auto& [k, v] : local.relevance_pages) {
    if (out->relevance_pages.size() < kRelevanceSamples) out->relevance_pages.emplace(k, v);
  }
  if (out->error.empty()) out->error = local.error;
}

// The ADD batches of an `ingest` run, made before the clock starts from
// one generator per seed, so every run of a seed adds the same new entries.
struct AddBatch {
  std::vector<std::string> lines;
  double bytes = 0;  // TSV bytes in them.
};

std::vector<AddBatch> MakeAddBatches(uint64_t seed, size_t count) {
  workload::NameGenerator names(seed * 31 + 1000);
  std::mt19937_64 rng(seed * 77);
  std::vector<AddBatch> batches(count);
  for (AddBatch& batch : batches) {
    for (size_t i = 0; i < kAddBatch; ++i) {
      Entry e;
      e.author = names.NextAuthor();
      e.title = names.NextTitle();
      uint32_t off = static_cast<uint32_t>(rng() % 27);
      e.citation.volume = 69 + off;
      e.citation.year = 1966 + off;
      e.citation.page = 1 + static_cast<uint32_t>(rng() % 1500);
      batch.lines.push_back(EntryToTsvLine(e));
      batch.bytes += static_cast<double>(batch.lines.back().size());
    }
  }
  return batches;
}

// One closed-loop ADD client. The clients of a phase share `*next`, so
// they send batches `*next` .. `end` - 1 between them and finish together.
void RunAddClient(int port, bool trace, const std::vector<AddBatch>& batches,
                  std::atomic<size_t>* next, size_t end, Phase* out, std::mutex* mu) {
  net::Client client(ClientFor(port, trace));
  Phase local;
  for (size_t b; (b = next->fetch_add(1)) < end;) {
    const std::vector<std::string>& lines = batches[b].lines;
    ++local.attempted;
    double t0 = MonoS();
    Result<uint64_t> r = client.Add(lines);
    double us = (MonoS() - t0) * 1e6;
    if (!r.ok() || *r != lines.size()) {
      ++local.failed;
      if (local.error.empty()) {
        local.error = "ADD: " + (r.ok() ? std::string("short count") : r.status().ToString());
      }
      continue;
    }
    local.add_us.push_back(us);
    local.batch_us.emplace_back(b, us);
    local.entries_added += *r;
    local.user_bytes += batches[b].bytes;
    if (trace) {
      local.traces.push_back({kClsCount, us, client.last_trace().spans});
    }
  }
  std::lock_guard<std::mutex> lock(*mu);
  out->add_us.insert(out->add_us.end(), local.add_us.begin(), local.add_us.end());
  out->batch_us.insert(out->batch_us.end(), local.batch_us.begin(), local.batch_us.end());
  out->entries_added += local.entries_added;
  out->user_bytes += local.user_bytes;
  out->attempted += local.attempted;
  out->failed += local.failed;
  for (auto& t : local.traces) out->traces.push_back(std::move(t));
  if (out->error.empty()) out->error = local.error;
}

// The machine's CPU time from /proc/stat, in clock ticks: time busy
// (steal included) and time stolen by the hypervisor for other tenants.
struct HostCpu {
  double busy = 0;
  double steal = 0;
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (double& x : v) in >> x;
  return {v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

// Share of our busy CPU time that other tenants took between `a` and `b`.
double StealShare(const HostCpu& a, const HostCpu& b) {
  return Ratio(b.steal - a.steal, b.busy - a.busy);
}

// Sends the workload's queries from two connections for one second,
// untimed, so that the server's caches and the connections are warm.
std::string WarmUp(const Flags& f, const std::vector<std::vector<Op>>& ops) {
  std::atomic<bool> stop{false};
  Phase discard;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back(RunQueryClient, f.port, false, std::cref(ops[t % ops.size()]), HUGE_VAL,
                         &stop, &discard, &mu);
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop = true;
  for (auto& t : threads) t.join();
  return discard.error;
}

// Runs the query clients for `seconds`; on `ingest`, two ADD clients send
// `adds[begin, end)`, and the query clients run until they are done.
Phase RunPhase(const Flags& f, const std::vector<std::vector<Op>>& ops, bool trace,
               double seconds, const std::vector<AddBatch>& adds, size_t begin, size_t end) {
  Phase phase;
  std::mutex mu;
  std::atomic<bool> stop{false};
  std::atomic<size_t> next{begin};
  double cpu0 = ProcCpuS(f.server_pid);
  double t0 = MonoS();
  double deadline = f.cmd == "ingest" ? HUGE_VAL : t0 + seconds;
  std::vector<std::thread> threads;
  for (const auto& list : ops) {
    threads.emplace_back(RunQueryClient, f.port, trace, std::cref(list), deadline, &stop,
                         &phase, &mu);
  }
  std::vector<std::thread> adders;
  if (f.cmd == "ingest") {
    for (int t = 0; t < 2; ++t) {
      adders.emplace_back(RunAddClient, f.port, trace, std::cref(adds), &next, end, &phase,
                          &mu);
    }
  }
  if (f.cmd == "ingest") {
    for (auto& t : adders) t.join();
    stop = true;
  }
  for (auto& t : threads) t.join();
  phase.seconds = MonoS() - t0;
  if (f.cmd == "ingest") {
    // The flushes and compactions the adds set off run on after the last
    // ADD is acknowledged; their CPU belongs to the adds.
    AwaitIdle(f.server_pid);
  }
  phase.server_cpu_s = ProcCpuS(f.server_pid) - cpu0;
  return phase;
}

// Waits for the server's first answer; returns its monotonic time.
Result<std::pair<double, net::WireStats>> WaitReady(int port, double timeout_s) {
  double give_up = MonoS() + timeout_s;
  Status last = Status::IOError("not tried");
  while (MonoS() < give_up) {
    net::Client client(ClientFor(port, false));
    Result<net::WireStats> stats = client.Stats();
    if (stats.ok()) {
      return std::make_pair(MonoS(), *stats);
    }
    last = stats.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return last;
}

void WriteSpans(const std::string& path, const Phase& phase) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  for (const TraceRecord& rec : phase.traces) {
    out << "{\"class\": \"" << (rec.cls < kClsCount ? kClsName[rec.cls] : "add")
        << "\", \"rtt_us\": " << rec.rtt_us << ", \"spans\": [";
    for (size_t i = 0; i < rec.spans.size(); ++i) {
      const auto& s = rec.spans[i];
      out << (i ? ", " : "") << "[\"" << s.name << "\", " << s.depth << ", "
          << s.start_ns << ", " << s.duration_ns << "]";
    }
    out << "]}\n";
  }
}

int RunWire(const Flags& f) {
  Outcome o;
  Result<std::pair<double, net::WireStats>> ready = WaitReady(f.port, 120);
  if (!ready.ok()) {
    std::fprintf(stderr, "server never answered: %s\n", ready.status().ToString().c_str());
    return 2;
  }
  const uint64_t start_entries = ready->second.entry_count;
  o.extra.emplace_back("ready_mono", Num(ready->first));

  std::vector<Entry> corpus = workload::GenerateCorpus(CorpusFor(f.seed));
  Model model(corpus);
  if (start_entries != corpus.size()) {
    o.Fail(CheckCount("store entries", start_entries, corpus.size()));
  }
  int query_threads = f.cmd == "ingest" ? 1 : 2;
  std::vector<std::vector<Op>> ops;
  for (int t = 0; t < query_threads; ++t) {
    ops.push_back(MakeOps(f.cmd == "browse" ? "browse" : "lookup", f.seed, t, model));
    if (f.cmd == "ingest") {
      for (Op& op : ops.back()) op.at_least = true;
    }
  }

  // Untraced phase: the end-to-end numbers (all of --seconds), or the
  // baseline half of a traced run.
  // On `ingest`, the run's fixed total of ADD batches, split the same way.
  double untraced_s = f.trace ? f.seconds / 2 : f.seconds;
  std::vector<AddBatch> adds;
  if (f.cmd == "ingest") {
    adds = MakeAddBatches(f.seed, static_cast<size_t>(std::llround(
                                      f.seconds * kAddEntriesPerSecond / kAddBatch)));
  }
  const size_t untraced_adds = f.trace ? adds.size() / 2 : adds.size();
  std::string warm_error = WarmUp(f, ops);
  if (!warm_error.empty()) o.Fail("warm-up: " + warm_error);
  Scrape before = ParseMetricsText(HttpGet(f.http_port, "/metrics"));
  HostCpu host0 = ReadHostCpu();
  Phase main = RunPhase(f, ops, false, untraced_s, adds, 0, untraced_adds);
  std::fprintf(stderr, "host steal while measured: %.1f%%\n",
               StealShare(host0, ReadHostCpu()) * 100);
  Phase traced;
  Scrape mid, after;
  if (f.trace) {
    mid = ParseMetricsText(HttpGet(f.http_port, "/metrics"));
    traced = RunPhase(f, ops, true, f.seconds - untraced_s, adds, untraced_adds, adds.size());
    after = ParseMetricsText(HttpGet(f.http_port, "/metrics"));
    WriteSpans(f.spans_out, traced);
  }
  o.attempted = main.attempted + traced.attempted;
  o.failed = main.failed + traced.failed;
  if (main.queries == 0 || (f.cmd == "ingest" && main.entries_added == 0)) {
    o.Fail("no operation completed");
  }
  if (!main.error.empty()) o.Fail(main.error);
  if (!traced.error.empty()) o.Fail(traced.error);

  // Every sampled top-k page against the exhaustive ranker.
  {
    net::Client client(ClientFor(f.port, false));
    for (const auto& [text, page] : main.relevance_pages) {
      std::string exhaustive_text = text.substr(0, text.rfind(" limit:")) +
                                    " limit:" + std::to_string(kExhaustiveLimit);
      Result<net::WireQueryResult> r = client.Query(exhaustive_text);
      if (!r.ok()) {
        o.Fail(exhaustive_text + ": " + r.status().ToString());
        break;
      }
      std::string bad = CheckTopKPage(text, page, r->hits);
      if (!bad.empty()) o.Fail(bad);
    }
  }

  // Ingest: every acknowledged ADD is in the catalogue.
  uint64_t added = main.entries_added + traced.entries_added;
  if (f.cmd == "ingest") {
    net::Client client(ClientFor(f.port, false));
    Result<net::WireStats> stats = client.Stats();
    if (!stats.ok()) {
      o.Fail("STATS: " + stats.status().ToString());
    } else {
      std::string bad = CheckCount("entries after ingest", stats->entry_count, start_entries + added);
      if (!bad.empty()) o.Fail(bad);
    }
    o.extra.emplace_back("expect_entries", std::to_string(start_entries + added));
  }

  Metrics& m = o.metrics;
  std::vector<double> all_rtt;
  for (const auto& v : main.rtt_us) all_rtt.insert(all_rtt.end(), v.begin(), v.end());
  double query_p50_us = Median(all_rtt);
  if (!f.trace) {
    m.Set("rss_mb", PeakRssMb(std::to_string(f.server_pid)));
    // Server CPU time leaves out the time other tenants of a shared host
    // hold the CPUs; wall-clock throughput does not, so ops_per_s is
    // reported but not bounded.
    double ops = static_cast<double>(f.cmd == "ingest" ? main.entries_added : main.queries);
    m.Set("cpu_us_per_op", Ratio(main.server_cpu_s * 1e6, ops));
    m.Set("ops_per_s", Ratio(ops, main.seconds));
    if (f.cmd == "ingest") {
      // run.py takes each batch's fastest round trip over its passes,
      // from the round trips written here.
      std::sort(main.batch_us.begin(), main.batch_us.end());
      std::ofstream out(f.rtt_out);
      for (const auto& [batch, us] : main.batch_us) out << batch << ' ' << us << '\n';
    } else {
      // The median over the run's queries of each one's fastest round
      // trip: outside load only adds time, and every query is repeated.
      std::vector<double> floors;
      for (const auto& v : main.floor_us) floors.insert(floors.end(), v.begin(), v.end());
      m.Set("op_ms", Median(floors) / 1e3);
    }
    PrintOutcome(o);
    return o.correct ? 0 : 1;
  }

  // Per-layer numbers from the traced phase.
  SpanStats s;
  for (const TraceRecord& rec : traced.traces) AddTrace(rec, &s);
  std::vector<double> traced_rtt;
  for (const auto& v : traced.rtt_us) traced_rtt.insert(traced_rtt.end(), v.begin(), v.end());
  m.Set("net.rtt_us", Median(traced_rtt.empty() ? traced.add_us : traced_rtt));
  m.Set("net.socket_read_us", Median(s.socket_read));
  m.Set("net.decode_us", Median(s.decode));
  m.Set("net.queue_wait_us", Median(s.queue_wait));
  m.Set("net.wire_us", Median(s.wire));
  double requests = Delta(mid, after, "authidx_server_requests_total");
  m.Set("net.bytes_out_per_op", Ratio(Delta(mid, after, "authidx_server_bytes_out_total"), requests));
  m.Set("net.shed_total", Delta(before, after, "authidx_shed_requests_total"));
  static const char* const kStages[] = {"parse", "plan", "candidates", "filter", "order", "topk_prune"};
  for (int c = 0; c < kClsCount; ++c) {
    for (const char* stage : kStages) {
      auto it = s.stage[c].find(stage);
      m.Set(std::string("query.") + stage + "_us." + kClsName[c],
            it == s.stage[c].end() ? 0.0 : Median(it->second));
    }
    m.Set(std::string("query.matches_per_hit.") + kClsName[c], Ratio(traced.matches[c], traced.hits[c]));
    m.Set(std::string("query.rtt_us.") + kClsName[c], Median(traced.rtt_us[c]));
  }
  double queries = Delta(mid, after, "authidx_queries_total");
  m.Set("index.postings_decoded_per_query", Ratio(Delta(mid, after, "authidx_inverted_postings_decoded_total"), queries));
  m.Set("index.postings_skipped_per_query", Ratio(Delta(mid, after, "authidx_postings_skipped_total"), queries));
  m.Set("index.btree_page_reads_per_query", Ratio(Delta(mid, after, "authidx_btree_page_reads_total"), queries));
  m.Set("index.trie_prefix_scan_us", HistMean(mid, after, "authidx_trie_prefix_scan_duration_ns", 1e3));
  m.Set("core.execute_us", Median(s.execute));
  m.Set("core.execute_self_us", Median(s.execute_self));
  double user_bytes = main.user_bytes + traced.user_bytes;
  m.Set("storage.wal_append_us", HistMean(before, after, "authidx_wal_append_duration_ns", 1e3));
  m.Set("storage.group_commit_writes_per_batch",
        Ratio(Delta(before, after, "authidx_group_commit_writes_total"),
              Delta(before, after, "authidx_group_commit_batches_total")));
  m.Set("storage.flush_ms", HistMean(before, after, "authidx_memtable_flush_duration_ns", 1e6));
  m.Set("storage.compaction_ms", HistMean(before, after, "authidx_compaction_duration_ns", 1e6));
  m.Set("storage.write_stall_ms", Delta(before, after, "authidx_write_stall_duration_ns_sum") / 1e6);
  m.Set("storage.write_amp",
        Ratio(Delta(before, after, "authidx_wal_append_bytes_total") +
                  Delta(before, after, "authidx_memtable_flush_bytes_total") +
                  Delta(before, after, "authidx_compaction_bytes_out_total"),
              user_bytes));
  double traced_p50 = Median(traced_rtt.empty() ? traced.add_us : traced_rtt);
  double base_p50 = all_rtt.empty() ? Median(main.add_us) : query_p50_us;
  m.Set("obs.trace_overhead_pct", base_p50 > 0 ? (traced_p50 / base_p50 - 1.0) * 100.0 : 0.0);
  PrintOutcome(o);
  return o.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Store preparation and in-process layer probes.

int Prepare(const Flags& f) {
  std::vector<Entry> corpus = workload::GenerateCorpus(CorpusFor(f.seed));
  Result<std::unique_ptr<core::AuthorIndex>> catalog = core::AuthorIndex::OpenPersistent(f.db);
  if (!catalog.ok()) {
    std::fprintf(stderr, "open: %s\n", catalog.status().ToString().c_str());
    return 2;
  }
  Status s = (*catalog)->AddAll(std::move(corpus));
  if (s.ok()) s = (*catalog)->Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
    return 2;
  }
  Outcome o;
  o.attempted = 1;
  PrintOutcome(o);
  return 0;
}

// Times the public per-layer functions the server exposes no span for.
void ProbeFunctions(const std::vector<Entry>& corpus, Metrics* m) {
  const size_t n = 20000;
  std::vector<std::string> lines;
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    lines.push_back(EntryToTsvLine(corpus[i]));
    keys.push_back(GroupKeyOf(corpus[i].author));
  }
  size_t sink = 0;
  double t0 = MonoS();
  for (const std::string& line : lines) {
    Result<Entry> e = ParseTsvLine(line);
    sink += e.ok() ? e->title.size() : 0;
  }
  m->Set("parse.tsv_line_us", (MonoS() - t0) * 1e6 / n);
  t0 = MonoS();
  for (const std::string& key : keys) sink += text::MakeSortKey(key).size();
  m->Set("text.sort_key_us", (MonoS() - t0) * 1e6 / n);
  std::unique_ptr<core::AuthorIndex> mem = core::AuthorIndex::Create();
  std::vector<Entry> sample(corpus.begin(), corpus.begin() + static_cast<ptrdiff_t>(n));
  t0 = MonoS();
  Status s = mem->AddAll(std::move(sample));
  m->Set("core.index_entry_us", s.ok() ? (MonoS() - t0) * 1e6 / n : 0.0);
  if (sink == 0) std::fprintf(stderr, "probe sink empty\n");
}

// Storage open-and-scan, catalogue open, printed order and one typeset
// pass over the store in `dir`. When the store holds exactly the seed's
// corpus, the printed index is checked against it.
std::string ProbeStore(const std::string& dir, const std::vector<Entry>& corpus, Metrics* m) {
  double t0 = MonoS();
  {
    Result<std::unique_ptr<storage::StorageEngine>> engine =
        storage::StorageEngine::Open(dir, storage::EngineOptions{});
    if (!engine.ok()) return "engine open: " + engine.status().ToString();
    std::unique_ptr<storage::Iterator> it = (*engine)->NewIterator();
    size_t rows = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++rows;
    if (!it->status().ok() || rows == 0) return "engine scan failed";
  }
  double recovery_s = MonoS() - t0;
  m->Set("storage.recovery_s", recovery_s);
  t0 = MonoS();
  Result<std::unique_ptr<core::AuthorIndex>> catalog = core::AuthorIndex::OpenPersistent(dir);
  if (!catalog.ok()) return "open: " + catalog.status().ToString();
  m->Set("core.rebuild_s", std::max(0.0, MonoS() - t0 - recovery_s));
  double user_bytes = 0;
  for (EntryId id = 0; id < (*catalog)->entry_count(); ++id) {
    user_bytes += static_cast<double>(EntryToTsvLine(*(*catalog)->GetEntry(id)).size()) + 1;
  }
  m->Set("storage.space_amp", Ratio(DirBytes(dir), user_bytes));
  t0 = MonoS();
  size_t groups = (*catalog)->GroupsInOrder().size();
  m->Set("core.groups_in_order_ms", (MonoS() - t0) * 1e3);
  if (groups == 0) return "no groups";
  t0 = MonoS();
  std::vector<format::Page> pages = format::TypesetAuthorIndex(**catalog);
  double typeset_s = MonoS() - t0;
  m->Set("format.typeset_ms", typeset_s * 1e3);
  m->Set("format.page_us", typeset_s * 1e6 / static_cast<double>(pages.size()));
  if ((*catalog)->entry_count() != corpus.size()) {
    return "";  // An ingest store: the added entries are not in `corpus`.
  }
  return CheckPrinted(pages, corpus, LayoutOf(format::TypesetOptions{}));
}

int Probe(const Flags& f) {
  Outcome o;
  o.attempted = 1;
  std::vector<Entry> corpus = workload::GenerateCorpus(CorpusFor(f.seed));
  ProbeFunctions(corpus, &o.metrics);
  std::string bad = ProbeStore(f.db, corpus, &o.metrics);
  if (!bad.empty()) o.Fail(bad);
  PrintOutcome(o);
  return o.correct ? 0 : 1;
}

// Keeps every CPU busy in 1 s slices until two slices in a row have had
// little steal time (see kQuietSteal) or --seconds have passed. The steal
// time of a shared host comes in spells of a minute or more, and a run
// measured in one reads up to twice as slow, CPU time and set-up included.
int Quiet(const Flags& f) {
  double start = MonoS();
  double share = 0;
  int quiet_slices = 0;
  while (quiet_slices < 2 && MonoS() - start < f.seconds) {
    HostCpu before = ReadHostCpu();
    double slice_end = MonoS() + 1;
    std::vector<std::thread> spinners;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
      spinners.emplace_back([slice_end] {
        while (MonoS() < slice_end) {
        }
      });
    }
    for (auto& t : spinners) t.join();
    share = StealShare(before, ReadHostCpu());
    quiet_slices = share < kQuietSteal ? quiet_slices + 1 : 0;
  }
  Outcome o;
  o.attempted = 1;
  o.extra.emplace_back("steal", Num(share));
  o.extra.emplace_back("waited_s", Num(MonoS() - start));
  PrintOutcome(o);
  return 0;
}

int Stats(const Flags& f) {
  Result<std::pair<double, net::WireStats>> ready = WaitReady(f.port, 120);
  if (!ready.ok()) {
    std::fprintf(stderr, "server never answered: %s\n", ready.status().ToString().c_str());
    return 2;
  }
  Outcome o;
  o.attempted = 1;
  o.extra.emplace_back("ready_mono", Num(ready->first));
  o.extra.emplace_back("entries", std::to_string(ready->second.entry_count));
  PrintOutcome(o);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every check must reject a deliberately wrong answer.

int SelfTest() {
  int failures = 0;
  // `pass` is true when the check judged the answer as it should.
  auto expect = [&](bool pass, const char* what) {
    std::printf("%-58s %s\n", what, pass ? "ok" : "FAILED");
    if (!pass) ++failures;
  };
  auto hit = [](EntryId id, double score, const std::string& citation) {
    net::WireHit h;
    h.id = id;
    h.score = score;
    h.citation = citation;
    return h;
  };
  Op total_op;
  total_op.cls = kSurname;
  total_op.check_total = true;
  total_op.expect_total = 3;
  total_op.limit = 10;
  net::WireQueryResult r;
  r.total_matches = 3;
  r.hits = {hit(1, 0, "70:1 (1967)"), hit(2, 0, "70:2 (1967)"), hit(3, 0, "70:3 (1967)")};
  expect(CheckQueryAnswer(total_op, r).empty(), "right surname total is accepted");
  r.total_matches = 4;
  expect(!CheckQueryAnswer(total_op, r).empty(), "wrong surname total is rejected");
  r.total_matches = 3;
  r.hits.pop_back();
  expect(!CheckQueryAnswer(total_op, r).empty(), "short page for an exact total is rejected");

  Op rel;
  rel.cls = kRelFiltered;
  rel.limit = 10;
  rel.year_lo = 1970;
  rel.year_hi = 1975;
  r.total_matches = 2;
  r.hits = {hit(5, 2.5, "73:1 (1970)"), hit(6, 3.0, "74:1 (1971)")};
  expect(!CheckQueryAnswer(rel, r).empty(), "relevance scores increasing down a page are rejected");
  r.hits = {hit(5, 3.0, "73:1 (1970)"), hit(6, 2.0, "80:1 (1977)")};
  expect(!CheckQueryAnswer(rel, r).empty(), "year-filtered hit outside its range is rejected");
  r.hits = {hit(5, 3.0, "73:1 (1970)"), hit(6, 2.0, "74:1 (1971)")};
  expect(CheckQueryAnswer(rel, r).empty(), "right filtered page is accepted");

  std::vector<net::WireHit> exhaustive = {hit(5, 3.0, ""), hit(6, 2.0, ""), hit(7, 1.0, "")};
  std::vector<net::WireHit> page = {hit(5, 3.0, ""), hit(6, 2.0, "")};
  expect(CheckTopKPage("q", page, exhaustive).empty(), "top-k page equal to exhaustive accepted");
  page[1].id = 7;
  expect(!CheckTopKPage("q", page, exhaustive).empty(), "top-k page with a wrong id is rejected");
  page[1] = hit(6, std::nextafter(2.0, 3.0), "");
  expect(!CheckTopKPage("q", page, exhaustive).empty(), "top-k score off by one ulp is rejected");

  expect(!CheckCount("entries", 10, 11).empty(), "ingest count missing an acknowledged add is rejected");

  // Printed index: build a tiny catalogue, typeset it, then corrupt it.
  std::vector<Entry> corpus(3);
  const char* surnames[] = {"Abbott", "O'Brien", "Smith"};
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].author.surname = surnames[i];
    corpus[i].author.given = "Ann B.";
    corpus[i].title = "A Study of Mine Safety";
    corpus[i].citation = {90, static_cast<uint32_t>(10 + i), 1987};
  }
  std::unique_ptr<core::AuthorIndex> mem = core::AuthorIndex::Create();
  if (!mem->AddAll(corpus).ok()) {
    std::printf("selftest: AddAll failed\n");
    return 1;
  }
  format::TypesetOptions options;
  PrintLayout layout = LayoutOf(options);
  std::vector<format::Page> pages = format::TypesetAuthorIndex(*mem, options);
  expect(CheckPrinted(pages, corpus, layout).empty(), "right printed index is accepted");
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::vector<format::Page> bad = pages;
    size_t at = bad[0].text.find(from);
    if (at != std::string::npos) bad[0].text.replace(at, from.size(), to);
    return bad;
  };
  expect(!CheckPrinted(mutate("90:11 (1987)", "90:99 (1987)"), corpus, layout).empty(),
         "printed citation not in the corpus is rejected");
  expect(!CheckPrinted(mutate("Abbott, Ann B.", "Zeta, Ann B.  "), corpus, layout).empty(),
         "surnames out of collation order are rejected");
  expect(!CheckPrinted(mutate("A Study", "A Study of a Very Long Title That Overflows"),
                       corpus, layout).empty(),
         "title overflowing its column is rejected");
  std::vector<Entry> more = corpus;
  more.push_back(corpus[0]);
  expect(!CheckPrinted(pages, more, layout).empty(), "printed index missing an entry is rejected");
  expect(PrimaryKey("O'Brien") == "obrien" && PrimaryKey("Vol 09") < PrimaryKey("Vol 12"),
         "collation: punctuation ignored, numbers numeric");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    std::fprintf(stderr, "usage: perfbench_load <command> [--flag value]...\n");
    return 1;
  }
  if (f.cmd == "prepare") return Prepare(f);
  if (f.cmd == "browse" || f.cmd == "lookup" || f.cmd == "ingest") return RunWire(f);
  if (f.cmd == "stats") return Stats(f);
  if (f.cmd == "quiet") return Quiet(f);
  if (f.cmd == "probe") return Probe(f);
  if (f.cmd == "selftest") return SelfTest();
  std::fprintf(stderr, "unknown command %s\n", f.cmd.c_str());
  return 1;
}
