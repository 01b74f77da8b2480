// Workload abstraction for the exact trace driver.
//
// The five paper benchmarks (STREAM, Rodinia CFD and BFS, CloudSuite Page
// Rank and In-memory Analytics) are implemented as real algorithms that
// compute real results; every memory touch they make is reported through a
// MemRecorder so the machine simulator can replay the access stream against
// the cache hierarchy and the SPE device model.  The Executor interface is
// deliberately OpenMP-shaped: data-parallel kernels with static scheduling
// and an implicit barrier, which is exactly how the originals parallelise.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace nmo::wl {

/// Per-thread recorder of the memory operations a kernel body performs.
/// Addresses are in the workload's *virtual* address space (handed out by
/// Executor::alloc), decoupled from the process's real heap.
class MemRecorder {
 public:
  virtual ~MemRecorder() = default;
  virtual void load(Addr addr, std::uint8_t size = 8) = 0;
  virtual void store(Addr addr, std::uint8_t size = 8) = 0;
  /// Non-memory (ALU/branch) operations executed since the last call.
  virtual void alu(std::uint32_t n) = 0;
  /// Floating-point operations (counted for arithmetic intensity and also
  /// decoded ops like alu()).
  virtual void flop(std::uint32_t n) = 0;
};

/// Execution substrate provided by the simulator (sim::TraceEngine) or by
/// lightweight test doubles.
class Executor {
 public:
  /// Body of a data-parallel kernel: called once per thread with the
  /// thread's [begin, end) slice of the iteration space.
  using KernelBody =
      std::function<void(ThreadId tid, std::size_t begin, std::size_t end, MemRecorder&)>;
  using SerialBody = std::function<void(MemRecorder&)>;

  virtual ~Executor() = default;

  [[nodiscard]] virtual std::uint32_t threads() const = 0;

  /// OpenMP-style `parallel for` with static scheduling and an implicit
  /// barrier at the end.
  virtual void parallel_for(std::string_view kernel, std::size_t n, const KernelBody& body) = 0;

  /// Runs `body` on thread 0 (serial section).
  virtual void serial(std::string_view kernel, const SerialBody& body) = 0;

  /// Allocates `bytes` of the workload's virtual address space under `tag`.
  /// `report_scale` multiplies the *reported* footprint (capacity tracking)
  /// without changing addressing - how GiB-scale CloudSuite datasets are
  /// represented by laptop-scale runs: capacity reports (Fig. 2) show the
  /// paper's footprint while the simulated address space stays small.
  virtual Addr alloc(std::string_view tag, std::uint64_t bytes, std::uint64_t report_scale = 1) = 0;
  virtual void dealloc(Addr base) = 0;

  /// Current virtual time (for workloads that want phase timestamps).
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;
};

/// A runnable benchmark.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Executes the benchmark on `exec`, annotating phases through the NMO C
  /// API (core/nmo.h) exactly as an instrumented application would.
  virtual void run(Executor& exec) = 0;
};

}  // namespace nmo::wl
