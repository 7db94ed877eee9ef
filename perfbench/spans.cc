#include "spans.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <unordered_map>

namespace afc::perfbench {

namespace {

struct SpanRec {
  std::uint64_t op;
  std::uint32_t track;
  std::uint32_t stage;
  std::uint32_t order;  // export position: the tie-break for equal intervals
  Time begin;
  Time end;
};

/// Position just past `key` in `line`, or npos.
std::size_t after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  return at == std::string_view::npos ? at : at + key.size();
}

std::uint64_t parse_u64(std::string_view line, std::size_t pos) {
  std::uint64_t v = 0;
  std::from_chars(line.data() + pos, line.data() + line.size(), v);
  return v;
}

/// "<us>.<3 digits>" as exported by Collector::export_chrome_json -> ns.
Time parse_us(std::string_view line, std::size_t pos) {
  std::uint64_t us = 0;
  auto [p, ec] = std::from_chars(line.data() + pos, line.data() + line.size(), us);
  std::uint64_t frac = 0;
  if (ec == std::errc() && p < line.data() + line.size() && *p == '.') {
    std::from_chars(p + 1, line.data() + line.size(), frac);
  }
  return us * 1000 + frac;
}

/// Output stream sink that parses the Chrome trace-event export one line
/// (one span) at a time and keeps only what self time needs.
class SpanSink : public std::streambuf {
 public:
  std::vector<SpanRec> spans;
  std::vector<std::string> stages;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) put(char(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; i++) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_.push_back(c);
      return;
    }
    parse(line_);
    line_.clear();
  }

  void parse(std::string_view line) {
    if (line.find("\"ph\":\"X\"") == std::string_view::npos) return;
    const std::size_t name_at = after(line, "{\"name\":\"");
    const std::size_t pid_at = after(line, "\"pid\":");
    const std::size_t tid_at = after(line, "\"tid\":");
    const std::size_t ts_at = after(line, "\"ts\":");
    const std::size_t dur_at = after(line, "\"dur\":");
    if (name_at == std::string_view::npos || pid_at == std::string_view::npos ||
        tid_at == std::string_view::npos ||
        ts_at == std::string_view::npos || dur_at == std::string_view::npos) {
      return;
    }
    const std::string_view name = line.substr(name_at, line.find('"', name_at) - name_at);
    auto [it, inserted] = ids_.try_emplace(std::string(name), std::uint32_t(stages.size()));
    if (inserted) stages.emplace_back(name);
    const Time begin = parse_us(line, ts_at);
    spans.push_back(SpanRec{parse_u64(line, tid_at), std::uint32_t(parse_u64(line, pid_at)),
                            it->second, std::uint32_t(spans.size()), begin,
                            begin + parse_us(line, dur_at)});
  }

  std::string line_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

}  // namespace

std::map<std::string, StageTime> stage_times(const trace::Collector& tracer) {
  SpanSink sink;
  {
    std::ostream os(&sink);
    tracer.export_chrome_json(os);
  }
  auto& spans = sink.spans;
  // Per op: by begin, longer first, then export order — so every span a
  // span S contains comes after S, in begin order.
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.end != b.end) return a.end > b.end;
    return a.order < b.order;
  });

  struct Sum {
    std::uint64_t n = 0;
    double dur = 0.0;
    double self = 0.0;
  };
  std::vector<Sum> sums(sink.stages.size());
  std::vector<std::size_t> parent;
  std::vector<Time> covered;
  std::vector<Time> run_lo, run_hi;
  std::vector<char> open;
  for (std::size_t lo = 0; lo < spans.size();) {
    std::size_t hi = lo;
    while (hi < spans.size() && spans[hi].op == spans[lo].op) hi++;
    const std::size_t n = hi - lo;
    const SpanRec* op = &spans[lo];
    // Parent: the tightest span of the op that contains this one, on the
    // same track (actor) if any does, else on any track. Only earlier spans
    // in the sort order can contain a span.
    parent.assign(n, n);
    for (std::size_t j = 0; j < n; j++) {
      for (std::size_t i = 0; i < j; i++) {
        if (op[i].end < op[j].end) continue;
        const std::size_t p = parent[j];
        if (p == n) {
          parent[j] = i;
          continue;
        }
        const bool same_i = op[i].track == op[j].track;
        const bool same_p = op[p].track == op[j].track;
        if (same_i != same_p ? same_i : op[i].end - op[i].begin <= op[p].end - op[p].begin) {
          parent[j] = i;
        }
      }
    }
    // Self time: duration minus the union of the direct children, which
    // arrive in begin order.
    covered.assign(n, 0);
    run_lo.assign(n, 0);
    run_hi.assign(n, 0);
    open.assign(n, 0);
    for (std::size_t j = 0; j < n; j++) {
      const std::size_t p = parent[j];
      if (p == n) continue;
      if (open[p] && op[j].begin <= run_hi[p]) {
        run_hi[p] = std::max(run_hi[p], op[j].end);
        continue;
      }
      if (open[p]) covered[p] += run_hi[p] - run_lo[p];
      run_lo[p] = op[j].begin;
      run_hi[p] = op[j].end;
      open[p] = 1;
    }
    for (std::size_t i = 0; i < n; i++) {
      if (open[i]) covered[i] += run_hi[i] - run_lo[i];
      Sum& sum = sums[op[i].stage];
      sum.n++;
      sum.dur += double(op[i].end - op[i].begin);
      sum.self += double(op[i].end - op[i].begin - covered[i]);
    }
    lo = hi;
  }

  std::map<std::string, StageTime> out;
  for (std::size_t k = 0; k < sums.size(); k++) {
    if (sums[k].n == 0) continue;
    const double n = double(sums[k].n);
    out[sink.stages[k]] =
        StageTime{sums[k].dur / n / double(kMillisecond), sums[k].self / n / double(kMillisecond)};
  }
  return out;
}

}  // namespace afc::perfbench
