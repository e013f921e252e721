// C++ code generation backend: the analogue of ESSENT's output. Given a
// SimIR (and, for CCSS mode, a CondPartSchedule), emits C++20 source
// defining a `struct <className>` and an eval() advancing one clock cycle.
//
// State layout: top-level ports are named public members (`sim.reset`),
// every other signal is one word of the `uint64_t st_[]` arena at its
// sim::Layout offset (memberName() gives the spelling, e.g. `st_[17]`), and
// memories are `mem_<name>` arrays. Constants are set once by the
// out-of-line constructor from an {offset, value} table. Evaluation code is
// file-static free functions over `Simulator&`, so the struct declares no
// member per signal or partition and the host compiler's cost grows with
// the code, not with the state (a struct of 16k initialized members alone
// costs g++ seconds).
//
// Two modes, mirroring the paper's evaluation configurations:
//  * baseline  — straight-line full-cycle evaluation (static schedule, no
//    conditioning);
//  * CCSS      — one function per partition with activity flags, old-value
//    saves, branchless OR-reduced output triggers, in-place elided state
//    updates, and a main eval() that checks input changes and sweeps the
//    static schedule.
//
// Branch hints (§III-B2): reset-selected mux ways, printf bodies and
// stop/assertion handling are annotated unlikely so the compiler moves the
// cold code out of the hot instruction working set.
//
// Limitation (documented in DESIGN.md): generated code uses plain uint64_t
// storage, so every signal must be at most 64 bits wide; emitCpp throws
// CodegenError otherwise. The in-process engines have no such limit.
#pragma once

#include <stdexcept>
#include <string>

#include "core/schedule.h"
#include "sim/sim_ir.h"

namespace essent::codegen {

struct CodegenOptions {
  std::string className = "Simulator";
  bool ccss = true;         // false = baseline full-cycle
  bool branchHints = true;  // cold-path annotations
  // Conditional evaluation of multiplexor ways (§III-B): ops whose only
  // consumer is one arm of a mux are sunk into that arm's if/else branch,
  // so the untaken way is never computed. Only compiler temporaries are
  // sunk (named signals stay observable).
  bool muxShadow = true;
};

class CodegenError : public std::runtime_error {
 public:
  explicit CodegenError(const std::string& m) : std::runtime_error("codegen error: " + m) {}
};

// `schedule` may be null when opts.ccss is false.
std::string emitCpp(const sim::SimIR& ir, const core::CondPartSchedule* schedule,
                    const CodegenOptions& opts = {});

// Sharded emission for large designs, where a single translation unit would
// stall the host C++ compiler: `header` declares the simulator struct plus
// one sweep function per unit and finish_() (O(shards) declarations,
// whatever the design size), and `units[k]` defines a slice of the
// evaluation code, so the units compile in parallel and each stays a
// tractable size. Partition functions (CCSS) / schedule chunks (baseline)
// are assigned to units in schedule order, balanced by emitted byte count;
// unit 0 also defines the constructor and eval(). Write `header` as
// `<base>.h` and unit k as `<base>_<k>.cpp` — every unit includes the
// header by that name. emitCpp() is the one-unit case, concatenated.
struct ShardedCpp {
  std::string headerName;             // "<base>.h"
  std::string header;
  std::vector<std::string> unitNames; // "<base>_<k>.cpp"
  std::vector<std::string> units;
};

// `shards` is clamped to [1, work functions]; `base` is the file-name stem
// recorded in headerName/unitNames (and in each unit's #include line).
ShardedCpp emitCppSharded(const sim::SimIR& ir, const core::CondPartSchedule* schedule,
                          const CodegenOptions& opts, uint32_t shards,
                          const std::string& base = "sim");

// The member expression for a signal in generated code: the port's name,
// or `st_[k]` with k its sim::Layout offset. Stable and collision-free;
// harnesses address a signal as `sim.` + memberName(ir, sig).
std::string memberName(const sim::SimIR& ir, int32_t sig);

}  // namespace essent::codegen
