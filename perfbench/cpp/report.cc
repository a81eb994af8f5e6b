#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < kTailBeyond + 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the value at 0-based index i is the 100*(i+1)/n-th
  // percentile and has n-1-i samples above it.
  const std::size_t i = n - 1 - kTailBeyond;
  Tail t;
  t.value = samples[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  t.beyond = n - 1 - i;
  t.samples = n;
  return t;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::logic_error("invalid metric name '" + name + "'");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) throw std::logic_error("duplicate metric " + name);
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const MetricSet& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics.metrics()) {
    if (out.size() > 1) out += ", ";
    out += json_escape(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_escape(m.unit) + "}";
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  return out + ", \"metrics\": " + metrics_json(metrics) + "}";
}

std::string_view sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "";
#endif
#else
  return "";
#endif
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand = brand.c_str();  // drop the NUL padding
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            std::size_t jobs, bool traced) {
  const std::string_view san = sanitizer_name();
  std::string out = "{\"provenance\": {";
  out += "\"workload\": " + json_escape(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"jobs\": " + std::to_string(jobs);
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"traced\": ";
  out += traced ? "true" : "false";
  out += ", \"build_type\": " + json_escape(PERFBENCH_BUILD_TYPE);
  out += ", \"sanitizer\": " + json_escape(san.empty() ? "none" : san);
  out += ", \"compiler\": " + json_escape(PERFBENCH_COMPILER);
  out += ", \"cpu_model\": " + json_escape(cpu_model());
  out += "}}";
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
