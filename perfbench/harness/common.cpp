#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values_.size(), static_cast<std::size_t>(rank)) - 1;
  return values_[index];
}

std::uint32_t Tracer::begin(const char* name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNone : open_.back();
  const std::uint32_t request =
      parent == kNone ? index : spans_[parent].request;
  spans_.push_back(Record{name, origin_.microseconds(), 0.0, parent, request});
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  Record& span = spans_[index];
  span.dur_us = origin_.microseconds() - span.start_us;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buffer[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %lld, \"request\": %u}}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.dur_us, i,
                  s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                  s.request);
    out << buffer;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

void MetricSet::set(const std::string& name, double value,
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

std::string MetricSet::to_json() const {
  std::ostringstream out;
  out << "{";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values have no JSON spelling; they surface as null and the
    // wrapper script rejects the run.
    if (std::isfinite(m.value)) {
      std::snprintf(number, sizeof number, "%.17g", m.value);
    } else {
      std::snprintf(number, sizeof number, "null");
    }
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name)
        << "\": {\"value\": " << number << ", \"unit\": \""
        << json_escape(m.unit) << "\"}";
  }
  out << "}";
  return out.str();
}

void Digest::add(double value) { add_bytes(&value, sizeof value); }

void Digest::add(std::int64_t value) { add_bytes(&value, sizeof value); }

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0xd1b54a32d192ed03ull);
  return rs::util::splitmix64(state);
}

}  // namespace perfbench
