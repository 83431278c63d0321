#include "measure.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string Number(double value) {
  // Every digit the double carries: the report is a measurement, not a
  // rounded display value.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string MetricSink::Table() const {
  std::ostringstream out;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    char line[256];
    std::snprintf(line, sizeof(line), "%-32s %16.6g %-6s %s\n", name.c_str(),
                  e.value, e.unit.c_str(), e.note.c_str());
    out << line;
  }
  for (const std::string& name : unsupported_) {
    out << name << ": percentile unsupported by the sample, not reported\n";
  }
  return out.str();
}

std::string MetricSink::Json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
