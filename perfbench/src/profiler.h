// The traced run's instruments, armed only there.
//
//   * A program-counter sampler: ITIMER_PROF delivers SIGPROF per
//     millisecond of process CPU time, and the handler stores the
//     interrupted PC in a preallocated buffer.
//   * An allocation counter: this benchmark replaces global operator new,
//     which counts calls while counting is on.
//
// After the run, samples are mapped to the repo's modules ("layers") by the
// namespace of the enclosing symbol in this binary's symbol table. A library
// template instantiated for a layer's type (std::deque<sim::link::queued>,
// a scheduler trampoline for a link lambda) counts toward that layer. PCs in
// shared libraries (/proc/self/maps) count toward "runtime". An inlined
// callee counts toward its caller's layer.
#ifndef PERFBENCH_PROFILER_H
#define PERFBENCH_PROFILER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::prof {

/// Turns counting of operator new calls on or off.
void count_allocations(bool on);
/// operator new calls counted so far.
[[nodiscard]] std::uint64_t allocations();

/// Arms / disarms the PC sampler (one sample per `interval_us` of CPU time).
void start_sampling(int interval_us);
void stop_sampling();

/// Process CPU time, seconds.
[[nodiscard]] double cpu_seconds();

/// The layers samples are attributed to, in report order; the last entry is
/// "unattributed" (no symbol, or the benchmark's own harness code).
[[nodiscard]] const std::vector<std::string>& layers();

/// Sample counts per layer (same order as layers()) over every sample taken
/// so far.
[[nodiscard]] std::vector<std::uint64_t> samples_by_layer();

/// Layer of one demangled symbol name (exposed for the self-test).
[[nodiscard]] std::string layer_of_symbol(const std::string& demangled);

}  // namespace perfbench::prof

#endif  // PERFBENCH_PROFILER_H
