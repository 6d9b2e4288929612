#include "report.hpp"

#include <cstdio>

#include "support/json.hpp"

namespace perfbench {

namespace {
std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::note(const std::string& key, double value) {
  notes_.emplace_back(key, format_value(value));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::lines() const {
  std::string out;
  for (const auto& [key, value] : notes_) {
    out += "# " + key + ": " + value + "\n";
  }
  for (const Metric& m : metrics_) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-34s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::json() const {
  glaf::JsonWriter w;
  w.begin_object();
  w.key("provenance");
  w.begin_object();
  for (const auto& [key, value] : notes_) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  glaf::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace perfbench
