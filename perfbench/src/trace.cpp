#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "support/json.hpp"

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int Tracer::begin(std::string name, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  return add(std::move(name), id, parent, t, t);
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int Tracer::add(std::string name, std::uint64_t id, int parent,
                std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{std::move(name), id, parent, start_ns, end_ns, tid_});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the union so far
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return self;
}

std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, NameTotals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = by_name[spans[i].name];
    t.name = spans[i].name;
    ++t.count;
    t.total_us += spans[i].duration_us();
    t.self_us += self[i];
  }
  std::vector<NameTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

double uncovered_share(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  double root_total = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    root_total += spans[i].duration_us();
    root_self += self[i];
  }
  return root_total > 0.0 ? root_self / root_total : 0.0;
}

std::string chrome_trace_json(const std::vector<const Tracer*>& tracers,
                              std::size_t max_events) {
  const std::size_t per_tracer =
      tracers.empty() ? 0 : max_events / tracers.size();
  glaf::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Tracer* tracer : tracers) {
    const std::size_t n = std::min(per_tracer, tracer->spans().size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = tracer->spans()[i];
      w.begin_object();
      w.key("name");
      w.value(s.name);
      w.key("cat");
      w.value(s.name.substr(0, s.name.find('.')));
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value(static_cast<double>(s.start_ns) / 1e3);
      w.key("dur");
      w.value(s.duration_us());
      w.key("pid");
      w.value(1);
      w.key("tid");
      w.value(s.tid);
      w.key("args");
      w.begin_object();
      w.key("id");
      w.value(s.id);
      w.key("parent");
      w.value(s.parent);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace perfbench
