// perfbench_driver: runs one benchmark workload and prints its result as
// one JSON line. run.py builds it, starts melody_serve for the socket
// workloads and turns this line into the benchmark's report.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 [--port P]
//   perfbench_driver --server-args W --seed N
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double own_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":" + number(value);
  }
  return out + "}";
}

int usage(const std::string& error) {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 [--port P]\n"
               "       perfbench_driver --server-args W --seed N\n"
               "error: %s\n",
               error.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string server_args_for;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--port") {
        args.port = std::stoi(value);
      } else if (flag == "--server-args") {
        server_args_for = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!server_args_for.empty()) {
    std::string out = "[";
    for (const std::string& a : server_args(server_args_for, args.seed)) {
      out += (out.size() > 1 ? "," : "") + quote(a);
    }
    std::printf("%s]\n", out.c_str());
    return 0;
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  Result result;
  try {
    if (args.workload == "longterm") {
      result = run_longterm(args);
    } else if (args.workload == "ingest") {
      result = run_ingest(args);
    } else if (args.workload == "migrate") {
      result = run_migrate(args);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::string problems = "[";
  for (const std::string& p : result.problems) {
    problems += (problems.size() > 1 ? "," : "") + quote(p);
  }
  problems += "]";
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"problems\":%s,"
      "\"e2e\":%s,\"layers\":%s,\"aliases\":%s}\n",
      result.problems.empty() ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), problems.c_str(),
      object(result.e2e).c_str(), object(result.layers).c_str(),
      object(result.aliases).c_str());
  return 0;
}
