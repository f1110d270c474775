#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <thread>
#include <utility>

#include "simd/dispatch.h"

namespace bbf::bench {
namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// `git describe --always --dirty` of the working directory, read when
/// the binary runs, so the file names the code that produced it.
std::string Commit() {
  std::string out;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string HostJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  return Row()
      .Int("nproc", nproc)
      .Text("cpu", CpuModel())
      .Text("simd_kernel", simd::ActiveIsaName())
      .Text("build_type", BBF_BUILD_TYPE)
      .Text("commit", Commit())
      .json();
}

}  // namespace

std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   const std::vector<uint64_t>& negatives) {
  std::vector<uint64_t> q;
  q.reserve(keys.size() + negatives.size());
  for (size_t i = 0; i < keys.size() || i < negatives.size(); ++i) {
    if (i < keys.size()) q.push_back(keys[i]);
    if (i < negatives.size()) q.push_back(negatives[i]);
  }
  return q;
}

Spread SpreadOf(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const auto rank = [&](size_t p) {
    return samples[std::max<size_t>((p * n + 99) / 100, 1) - 1];
  };
  return {rank(50), rank(10), rank(90)};
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Row& Row::Field(std::string_view key, const std::string& value) {
  if (!fields_.empty()) fields_ += ", ";
  fields_ += JsonString(key) + ": " + value;
  return *this;
}

Row& Row::Text(std::string_view key, std::string_view value) {
  return Field(key, JsonString(value));
}

Row& Row::Int(std::string_view key, int64_t value) {
  return Field(key, std::to_string(value));
}

Row& Row::Num(std::string_view key, double value) {
  return Field(key, JsonNumber(value));
}

Row& Row::Cell(std::string_view key, const Spread& value) {
  return Field(key, "{\"median\": " + JsonNumber(value.median) +
                        ", \"p10\": " + JsonNumber(value.p10) +
                        ", \"p90\": " + JsonNumber(value.p90) + "}");
}

Row& Row::Bool(std::string_view key, bool value) {
  return Field(key, value ? "true" : "false");
}

Harness::Harness(std::string bench, int reps, int argc, char** argv)
    : bench_(std::move(bench)), reps_(reps) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick_ = true;
    } else if (arg.rfind("--json=", 0) == 0 && arg.size() > 7) {
      json_path_ = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json=PATH]\n", argv[0]);
      std::exit(2);
    }
  }
}

Row& Harness::AddRow() { return rows_.emplace_back(); }

bool Harness::Check(bool ok, std::string_view what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
                 what.data());
    failed_ = true;
  }
  return ok;
}

bool Harness::Gate(std::string_view name, double value, Cmp cmp,
                   double bound) {
  const bool pass = cmp == Cmp::kAtMost    ? value <= bound
                    : cmp == Cmp::kAtLeast ? value >= bound
                                           : value < bound;
  const char* op = cmp == Cmp::kAtMost    ? "<="
                   : cmp == Cmp::kAtLeast ? ">="
                                          : "<";
  std::fprintf(pass ? stdout : stderr, "gate %.*s: %g %s %g -> %s\n",
               static_cast<int>(name.size()), name.data(), value, op, bound,
               pass ? "ok" : "FAIL");
  gates_.push_back(Row()
                       .Text("name", name)
                       .Num("value", value)
                       .Text("op", op)
                       .Num("bound", bound)
                       .Bool("pass", pass)
                       .json());
  failed_ |= !pass;
  return pass;
}

int Harness::Finish() {
  if (json_path_.empty()) return failed_ ? 1 : 0;
  FILE* f = std::fopen(json_path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path_.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": %s,\n  \"host\": %s,\n  \"reps\": %d,\n"
               "  \"quick\": %s,\n",
               JsonString(bench_).c_str(), HostJson().c_str(), reps_,
               quick_ ? "true" : "false");
  std::fprintf(f, "  \"results\": [");
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", rows_[i].json().c_str());
  }
  std::fprintf(f, "\n  ],\n  \"gates\": [");
  for (size_t i = 0; i < gates_.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", gates_[i].c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path_.c_str());
  return failed_ ? 1 : 0;
}

}  // namespace bbf::bench
