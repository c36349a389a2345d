// Correctness gates: a violated gate prints its reason and ends the process
// with exit code 1 and no result line, whatever threads are still running.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <unistd.h>

#include <cstdio>
#include <string>

namespace perfbench {

[[noreturn]] inline void Fail(const std::string& reason) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               reason.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  _exit(1);
}

inline void Gate(bool ok, const std::string& reason) {
  if (!ok) Fail(reason);
}

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
