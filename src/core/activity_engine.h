// The ESSENT-style CCSS activity engine (paper §III, Figure 1).
//
// Executes a CondPartSchedule, through its execution stream (below): per
// cycle it
//   1. compares external inputs against their previous values and wakes the
//      consumer partitions of any that changed;
//   2. sweeps the partitions in the singular static schedule order; an
//      active partition first deactivates itself, saves the old values of
//      its outputs, evaluates its ops with full-cycle style straight-line
//      code, applies its elided state-element updates (waking state
//      consumers on change — effective next cycle, since ordering edges put
//      every reader before the writer), then compares its outputs and wakes
//      the consumers of those that changed (push-direction triggering,
//      branchless OR-reduction of the change flags per output);
//   3. fires printf/stop side effects from the (stale-but-correct) enable
//      signals;
//   4. runs phase 2: non-elided registers copy next->current and memory
//      writes commit, waking consumers on change.
//
// The activity flags are one bit per partition (schedule position), packed
// into uint64_t words. The sweep skips zero words and, inside a word, takes
// the lowest set bit with ctz, so a cycle costs O(parts / 64) word tests
// plus the active partitions' work rather than one byte test per partition.
// After each partition it masks off every bit at or below the current
// position: a wake of an earlier or the same partition (elided register
// writes, self-wakes) stays set and runs next cycle, as in Figure 1.
//
// The engine reads nothing but the CcssStream below on the tick path: the
// schedule re-laid out partition-major, with each partition's ops (copied
// ExecOps in schedule order), output compare records, elided commits and
// wake lists in contiguous flat arrays. ESSENT emits each partition as one
// straight-line function, so its ops, compares and trigger stores sit
// together in memory; walking the CondPartSchedule instead cost an
// indirection per op (into ExecOps in IR order), two Layout lookups per
// output and a separate heap vector per wake list, and at boom scale those
// cache misses were most of an op's cost.
//
// Overhead counters map onto Figure 7's decomposition: partitionChecks is
// the static overhead, outputComparisons/triggerSets the dynamic overhead,
// and opsEvaluated the base work (effective activity = opsEvaluated /
// (totalOps * cycles)). partitionChecks stays the paper's logical count,
// parts x cycles, whatever the word scan actually touches.
#pragma once

#include <memory>

#include "core/schedule.h"
#include "sim/engine.h"

namespace essent::core {

// Per-partition runtime counters, gathered only while profiling is on.
struct PartitionProfile {
  uint64_t activations = 0;   // times the partition ran
  uint64_t opsEvaluated = 0;  // ops executed across those runs
  uint64_t wakesIssued = 0;   // consumer flags this partition's runs set
};

// Profile of one ActivityEngine run: per-partition counters plus a
// cycle-window activity timeline (partition activations per window of
// `windowCycles` cycles — the runtime analogue of Figure 5's per-cycle
// activity traces, coarse enough to stay cheap on million-cycle runs).
struct ActivityProfile {
  uint64_t profiledCycles = 0;
  uint32_t windowCycles = 256;
  std::vector<PartitionProfile> parts;
  std::vector<uint64_t> activationsPerWindow;
};

// Records of the execution stream (CcssStream, below). Every index is a
// position in one of its arrays; a wake list is wake[wakeBegin, wakeEnd).

// A compare-and-wake record: `nwords` arena words at valOff, their saved
// copy at saveOff, and the partitions to wake when the two differ. Used for
// partition outputs (saveOff into the engine's per-partition save scratch)
// and for external inputs (saveOff into the previous-input buffer).
struct StreamOutput {
  uint32_t valOff, saveOff, nwords, wakeBegin, wakeEnd;
};

// A register commit: `nwords` words from nextOff to sigOff, waking the
// register's readers on a change.
struct StreamRegWrite {
  uint32_t sigOff, nextOff, nwords, wakeBegin, wakeEnd;
};

// A memory write-port commit, with its port signals resolved to offsets.
struct StreamMemWrite {
  uint32_t mem, enOff, maskOff, addrOff, dataOff, wakeBegin, wakeEnd;
  uint64_t depth;
};

// A combinational-loop supernode run: stream ops [begin, end) iterate to
// convergence. A supernode always lies wholly inside one partition.
struct StreamSuper {
  uint32_t begin, end;
};

// First record of each kind owned by a partition. parts has one sentinel
// entry past the last partition, so partition pos owns [parts[pos].x,
// parts[pos + 1].x) of each array.
struct StreamPart {
  uint32_t op, super, out, reg, mem;
};

struct CcssStream {
  std::vector<sim::ExecOp> ops;           // schedule order, partition-major
  std::vector<StreamSuper> supers;
  std::vector<StreamOutput> outputs;
  std::vector<StreamRegWrite> regWrites;  // elided: applied at partition end
  std::vector<StreamMemWrite> memWrites;  // elided
  std::vector<StreamPart> parts;          // numPartitions() + 1
  std::vector<int32_t> wake;              // every wake list, concatenated
  std::vector<StreamOutput> inputs;       // parallel to ir.inputs
  std::vector<StreamRegWrite> deferredRegs;  // phase 2
  std::vector<StreamMemWrite> deferredMemWrites;
  uint32_t saveWords = 0;   // output words of the widest partition
  uint32_t inputWords = 0;  // words of all external inputs
};

// The design-independent half of the compiled CCSS structure: the
// CondPartSchedule (the build-time and inspection form that codegen, the
// lane engine, the exporters and the tests read) plus the execution stream
// ActivityEngine runs. This is what CompiledCcss::get caches inside the
// design's extension cache, and it deliberately holds no pointer back to
// the design: a back-pointer from a cache entry would close a shared_ptr
// cycle (design -> ext_ -> schedule -> design) and leak both.
struct CcssSchedule {
  CondPartSchedule sched;
  CcssStream stream;
};

// Immutable CCSS structure shared by every activity-engine instance over
// the same design: the design plus its (possibly cache-shared) schedule
// body. Cheap to copy — two shared_ptrs.
struct CompiledCcss {
  std::shared_ptr<const sim::CompiledDesign> design;
  std::shared_ptr<const CcssSchedule> body;

  // Wraps an already-built schedule (must come from a Netlist over the
  // same SimIR).
  static std::shared_ptr<const CompiledCcss> compile(
      std::shared_ptr<const sim::CompiledDesign> design, CondPartSchedule sched);
  // Builds netlist + partitioning + schedule with the options.
  static std::shared_ptr<const CompiledCcss> compile(
      std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts);
  // Cached variant: one schedule per (design, options), shared through the
  // design's extension cache — what sim::makeEngine and core::SimFarm use
  // so N concurrent instances pay for one schedule build.
  static std::shared_ptr<const CompiledCcss> get(
      const std::shared_ptr<const sim::CompiledDesign>& design, const ScheduleOptions& opts);
};

class ActivityEngine : public sim::Engine {
 public:
  // Shares a previously compiled schedule; the engine owns only its
  // mutable state (arena, wake flags, save buffer, profile).
  explicit ActivityEngine(std::shared_ptr<const CompiledCcss> ccss);

  void tick() override;
  void resetState() override;
  const char* name() const override { return "essent-ccss"; }

  const CondPartSchedule& schedule() const { return sched_; }

  // Fraction of ops evaluated over all cycles so far (Figure 7's
  // "effective activity factor").
  double effectiveActivity() const;

  // Per-partition profiling. Off by default: the unprofiled tick path pays
  // exactly one predictable branch per active partition and one per cycle.
  // Enabling mid-run starts counting from the current cycle; counters are
  // cleared on resetState() (in step with EngineStats) and by setting the
  // window. While profiling has been on since the last reset, the profile
  // op counts sum to stats().opsEvaluated and the activation counts to
  // stats().partitionActivations.
  void setProfiling(bool on);
  bool profiling() const { return profiling_; }
  const ActivityProfile& profile() const { return prof_; }
  void setProfileWindow(uint32_t cycles);  // clears the profile; cycles >= 1

 protected:
  void onStateClobbered() override {
    activateAll();
    firstCycle_ = true;
  }

 private:
  // Immutable structure (shared across instances) ...
  std::shared_ptr<const CompiledCcss> ccss_;
  const CondPartSchedule& sched_;  // = ccss_->body->sched
  const CcssStream& stream_;       // = ccss_->body->stream
  // ... and this instance's mutable state. Bit (pos % 64) of word
  // (pos / 64) is partition pos's activity flag; tail bits stay zero.
  std::vector<uint64_t> active_;
  std::vector<uint64_t> prevInputs_;  // stream_.inputWords
  // Old output values of the running partition (stream_.saveWords): saved
  // on entry and compared on exit, so one partition's worth suffices.
  std::vector<uint64_t> outputSave_;
  bool firstCycle_ = true;
  bool profiling_ = false;
  ActivityProfile prof_;

  void clearProfile();
  void activateAll();
  void runPartition(size_t pos);
  void applyRegWrite(const StreamRegWrite& rw);
  void applyMemWrite(const StreamMemWrite& mw);
  void wake(uint32_t begin, uint32_t end);
  // Tick phase 1: wake consumers of changed external inputs and latch the
  // new input values.
  void sweepInputs();
  // Tick phases 3 + 4: side effects, then the non-elided state commits.
  void finishCycle();
  // Folds the per-cycle activation delta into the profile timeline.
  void recordProfiledCycle(uint64_t activationsDelta);
};

}  // namespace essent::core
