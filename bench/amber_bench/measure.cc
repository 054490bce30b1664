#include "measure.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace amber::bench {

namespace {

constexpr size_t kNpos = std::string_view::npos;

/// Index just past the JSON string literal that starts at s[i] == '"'.
size_t SkipString(std::string_view s, size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return kNpos;
}

/// Folds the rows array starting at s[i] == '[' (an array of string
/// arrays, as json::Writer prints it: no whitespace). Returns the index
/// past the array, or kNpos when the bytes are not such an array.
size_t FoldRows(std::string_view s, size_t i, BodyAnswer* out) {
  if (i >= s.size() || s[i] != '[') return kNpos;
  ++i;
  if (i < s.size() && s[i] == ']') return i + 1;
  while (i < s.size() && s[i] == '[') {
    ++i;
    while (i < s.size() && s[i] == '"') {
      const size_t end = SkipString(s, i);
      if (end == kNpos) return kNpos;
      out->digest = Fnv(out->digest, s.substr(i, end - i));
      i = end;
      if (i < s.size() && s[i] == ',') ++i;
    }
    if (i >= s.size() || s[i] != ']') return kNpos;
    ++i;
    out->digest = Fnv(out->digest, "\n");
    ++out->rows;
    if (i < s.size() && s[i] == ',') {
      ++i;
    } else if (i < s.size() && s[i] == ']') {
      return i + 1;
    } else {
      return kNpos;
    }
  }
  return kNpos;
}

constexpr std::string_view kCountHead =
    R"({"result_form":"count","total_rows":)";
constexpr std::string_view kRowsHead = R"({"result_form":"rows",)";
constexpr std::string_view kRowsKey = R"("rows":[)";
constexpr std::string_view kCleanEnd = R"("timed_out":false,"cancelled":false)";

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

uint64_t Fnv(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

BodyAnswer ScanQueryBody(std::string_view body) {
  BodyAnswer a;
  a.pages = 1;
  if (body.starts_with(kCountHead)) {
    uint64_t n = 0;
    const char* first = body.data() + kCountHead.size();
    const auto [ptr, ec] =
        std::from_chars(first, body.data() + body.size(), n);
    if (ec != std::errc()) return a;
    a.digest = DigestCount(n);
    a.rows = 1;
    a.complete = body.find(kCleanEnd, static_cast<size_t>(ptr - body.data())) !=
                 kNpos;
    return a;
  }
  if (!body.starts_with(kRowsHead)) return a;
  const size_t key = body.find(kRowsKey);
  if (key == kNpos) return a;
  const size_t end = FoldRows(body, key + kRowsKey.size() - 1, &a);
  if (end == kNpos) return a;
  a.complete = body.find(kCleanEnd, end) != kNpos;
  return a;
}

BodyAnswer ScanStreamBody(std::string_view body) {
  BodyAnswer a;
  bool summary_seen = false;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == kNpos) nl = body.size();
    const std::string_view line = body.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (summary_seen) return a;  // nothing may follow the summary
    if (line.starts_with(R"({"summary":)")) {
      summary_seen = true;
      a.complete = line.find(R"("complete":true)") != kNpos;
      continue;
    }
    const size_t key = line.find(kRowsKey);
    if (!line.starts_with(R"({"first_row":)") || key == kNpos ||
        FoldRows(line, key + kRowsKey.size() - 1, &a) == kNpos) {
      return a;
    }
    ++a.pages;
  }
  if (!summary_seen) a.complete = false;
  return a;
}

uint64_t DigestRows(std::span<const std::vector<std::string>> rows) {
  uint64_t h = kFnvOffset;
  std::string quoted;
  for (const std::vector<std::string>& row : rows) {
    for (const std::string& cell : row) {
      quoted.clear();
      json::AppendQuoted(&quoted, cell);
      h = Fnv(h, quoted);
    }
    h = Fnv(h, "\n");
  }
  return h;
}

uint64_t DigestCount(uint64_t count) {
  return Fnv(kFnvOffset, "count:" + std::to_string(count));
}

long ReadRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

void TrimHeap() { malloc_trim(0); }

}  // namespace amber::bench
