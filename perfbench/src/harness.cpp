#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double host_calibration_ms() {
  std::vector<double> samples;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < (1 << 22); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x % 1000003;
    }
    sink = sink + acc;
    samples.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  return median(samples);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int Tracer::begin(const char* name, std::uint64_t id) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      Span{name, id, parent, seconds_between(epoch_, Clock::now()), 0.0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(epoch_, Clock::now());
  open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t id, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back(Span{name, id, -1, seconds_between(epoch_, start),
                        seconds_between(epoch_, end)});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%d,"
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  i, s.name, static_cast<unsigned long long>(s.id), s.parent,
                  s.start, s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
