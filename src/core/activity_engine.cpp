#include "core/activity_engine.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"
#include "sim/op_eval.h"

namespace essent::core {

using sim::ExecOp;
using sim::MemInfo;
using sim::RegInfo;

namespace {

uint32_t size32(size_t n) {
  if (n > UINT32_MAX) throw std::length_error("CCSS execution stream exceeds 32-bit indexing");
  return static_cast<uint32_t>(n);
}

CcssStream buildStream(const sim::CompiledDesign& design, const CondPartSchedule& sched) {
  const sim::SimIR& ir = design.ir;
  const sim::Layout& lay = design.layout;
  CcssStream st;
  auto wakeList = [&st](const std::vector<int32_t>& parts, uint32_t& begin, uint32_t& end) {
    begin = size32(st.wake.size());
    st.wake.insert(st.wake.end(), parts.begin(), parts.end());
    end = size32(st.wake.size());
  };
  auto regWrite = [&](const SchedRegWrite& rw) {
    const RegInfo& r = ir.regs[static_cast<size_t>(rw.regIdx)];
    StreamRegWrite out{lay.offset[r.sig], lay.offset[r.next], lay.nwords[r.sig], 0, 0};
    wakeList(rw.wakeParts, out.wakeBegin, out.wakeEnd);
    return out;
  };
  auto memWrite = [&](const SchedMemWrite& mw) {
    const MemInfo& mem = ir.mems[static_cast<size_t>(mw.memIdx)];
    const sim::MemWriter& w = mem.writers[static_cast<size_t>(mw.writerIdx)];
    StreamMemWrite out{static_cast<uint32_t>(mw.memIdx), lay.offset[w.en], lay.offset[w.mask],
                       lay.offset[w.addr], lay.offset[w.data], 0, 0, mem.depth};
    wakeList(mw.wakeParts, out.wakeBegin, out.wakeEnd);
    return out;
  };

  size_t totalOps = 0;
  for (const CondPart& part : sched.parts) totalOps += part.ops.size();
  st.ops.reserve(totalOps);
  st.parts.reserve(sched.parts.size() + 1);
  auto mark = [&st]() {
    st.parts.push_back(StreamPart{size32(st.ops.size()), size32(st.supers.size()),
                                  size32(st.outputs.size()), size32(st.regWrites.size()),
                                  size32(st.memWrites.size())});
  };
  for (const CondPart& part : sched.parts) {
    mark();
    int32_t prevSuper = -1;
    for (int32_t opIdx : part.ops) {
      // A supernode's members are contiguous in the partition's (sorted)
      // op list, so each supernode becomes one contiguous stream run.
      int32_t super = ir.superOf(static_cast<size_t>(opIdx));
      if (super >= 0 && super != prevSuper)
        st.supers.push_back(StreamSuper{size32(st.ops.size()), 0});
      st.ops.push_back(design.exec[static_cast<size_t>(opIdx)]);
      if (super >= 0) st.supers.back().end = size32(st.ops.size());
      prevSuper = super;
    }
    uint32_t saveOff = 0;
    for (const PartOutput& o : part.outputs) {
      StreamOutput out{lay.offset[o.sig], saveOff, lay.nwords[o.sig], 0, 0};
      wakeList(o.consumers, out.wakeBegin, out.wakeEnd);
      st.outputs.push_back(out);
      saveOff += out.nwords;
    }
    st.saveWords = std::max(st.saveWords, saveOff);
    for (const SchedRegWrite& rw : part.regWrites) st.regWrites.push_back(regWrite(rw));
    for (const SchedMemWrite& mw : part.memWrites) st.memWrites.push_back(memWrite(mw));
  }
  mark();  // sentinel: closes the last partition's ranges

  for (size_t i = 0; i < ir.inputs.size(); i++) {
    const auto in = static_cast<size_t>(ir.inputs[i]);
    StreamOutput out{lay.offset[in], st.inputWords, lay.nwords[in], 0, 0};
    wakeList(sched.inputConsumers[i], out.wakeBegin, out.wakeEnd);
    st.inputs.push_back(out);
    st.inputWords += out.nwords;
  }
  for (const SchedRegWrite& rw : sched.deferredRegs) st.deferredRegs.push_back(regWrite(rw));
  for (const SchedMemWrite& mw : sched.deferredMemWrites)
    st.deferredMemWrites.push_back(memWrite(mw));
  return st;
}

std::shared_ptr<const CcssSchedule> buildCcssSchedule(const sim::CompiledDesign& design,
                                                      CondPartSchedule sched) {
  auto body = std::make_shared<CcssSchedule>();
  body->sched = std::move(sched);
  body->stream = buildStream(design, body->sched);
  return body;
}

}  // namespace

std::shared_ptr<const CompiledCcss> CompiledCcss::compile(
    std::shared_ptr<const sim::CompiledDesign> design, CondPartSchedule sched) {
  auto cc = std::make_shared<CompiledCcss>();
  cc->body = buildCcssSchedule(*design, std::move(sched));
  cc->design = std::move(design);
  return cc;
}

std::shared_ptr<const CompiledCcss> CompiledCcss::compile(
    std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts) {
  CondPartSchedule sched = buildSchedule(Netlist::build(design->ir), opts);
  return compile(std::move(design), std::move(sched));
}

std::shared_ptr<const CompiledCcss> CompiledCcss::get(
    const std::shared_ptr<const sim::CompiledDesign>& design, const ScheduleOptions& opts) {
  // The key encodes every option the schedule build depends on.
  const PartitionOptions& po = opts.partition;
  std::string key = "ccss/cp=" + std::to_string(po.smallThreshold) +
                    "/pA=" + std::to_string(po.phaseSingleParent) +
                    "/pB=" + std::to_string(po.phaseSmallSiblings) +
                    "/pC=" + std::to_string(po.phaseAnySibling) +
                    "/mp=" + std::to_string(po.maxPasses) +
                    "/cmax=" + std::to_string(po.maxPartitionSize) +
                    "/elide=" + std::to_string(opts.stateElision);
  // Only the design-free schedule body lives in the cache (see
  // CcssSchedule); the wrapper pairing it with the design is rebuilt per
  // call and is two shared_ptr copies.
  auto cc = std::make_shared<CompiledCcss>();
  cc->body = design->getOrBuildExt<CcssSchedule>(key, [&design, &opts]() {
    return buildCcssSchedule(*design,
                             buildSchedule(Netlist::build(design->ir), opts));
  });
  cc->design = design;
  return cc;
}

ActivityEngine::ActivityEngine(std::shared_ptr<const CompiledCcss> ccss)
    : Engine(ccss->design),
      ccss_(std::move(ccss)),
      sched_(ccss_->body->sched),
      stream_(ccss_->body->stream) {
  active_.assign((sched_.parts.size() + 63) / 64, 0);
  activateAll();
  prevInputs_.assign(stream_.inputWords, 0);
  outputSave_.assign(stream_.saveWords, 0);
  firstCycle_ = true;
}

void ActivityEngine::resetState() {
  Engine::resetState();
  activateAll();
  std::fill(prevInputs_.begin(), prevInputs_.end(), 0);
  std::fill(outputSave_.begin(), outputSave_.end(), 0);
  firstCycle_ = true;
  clearProfile();  // keep profile sums consistent with the zeroed stats_
}

void ActivityEngine::activateAll() {
  std::fill(active_.begin(), active_.end(), ~uint64_t{0});
  if (size_t tail = sched_.parts.size() % 64) active_.back() = (uint64_t{1} << tail) - 1;
}

void ActivityEngine::clearProfile() {
  prof_.profiledCycles = 0;
  prof_.activationsPerWindow.clear();
  std::fill(prof_.parts.begin(), prof_.parts.end(), PartitionProfile{});
}

void ActivityEngine::setProfiling(bool on) {
  profiling_ = on;
  if (on && prof_.parts.size() != sched_.parts.size())
    prof_.parts.assign(sched_.parts.size(), PartitionProfile{});
}

void ActivityEngine::setProfileWindow(uint32_t cycles) {
  prof_.windowCycles = cycles == 0 ? 1 : cycles;
  clearProfile();
}

void ActivityEngine::wake(uint32_t begin, uint32_t end) {
  const int32_t* parts = stream_.wake.data();
  for (uint32_t i = begin; i < end; i++) {
    auto pos = static_cast<size_t>(parts[i]);
    active_[pos / 64] |= uint64_t{1} << (pos % 64);
  }
  stats_.triggerSets += end - begin;
}

void ActivityEngine::applyRegWrite(const StreamRegWrite& rw) {
  uint64_t* vals = state_.vals.data();
  uint64_t diff = 0;
  for (uint32_t i = 0; i < rw.nwords; i++) diff |= vals[rw.sigOff + i] ^ vals[rw.nextOff + i];
  stats_.outputComparisons++;
  if (diff == 0) return;
  for (uint32_t i = 0; i < rw.nwords; i++) vals[rw.sigOff + i] = vals[rw.nextOff + i];
  // All readers already ran this cycle (ordering edges), so these flags
  // take effect next cycle — the paper's immediate-wakeup insight.
  wake(rw.wakeBegin, rw.wakeEnd);
}

void ActivityEngine::applyMemWrite(const StreamMemWrite& mw) {
  const uint64_t* vals = state_.vals.data();
  if (vals[mw.enOff] == 0) return;
  if (vals[mw.maskOff] == 0) return;
  uint64_t addr = vals[mw.addrOff];
  if (addr >= mw.depth) return;
  uint32_t rw = state_.memRowWords[mw.mem];
  uint64_t* row = state_.memWords[mw.mem].data() + addr * rw;
  bool changed = false;
  stats_.outputComparisons++;
  for (uint32_t i = 0; i < rw; i++) {
    if (row[i] != vals[mw.dataOff + i]) {
      row[i] = vals[mw.dataOff + i];
      changed = true;
    }
  }
  if (changed) wake(mw.wakeBegin, mw.wakeEnd);
}

// 64-byte aligned, like tick(): see evalFastScalar in sim/op_eval.h.
[[gnu::aligned(64)]] void ActivityEngine::runPartition(size_t pos) {
  obs::TraceSpan span("part", obs::TraceCat::None, obs::TraceDetail::Partition,
                      "part", pos);
  stats_.partitionActivations++;
  const uint64_t wakesBefore = stats_.triggerSets;
  const StreamPart& part = stream_.parts[pos];
  const StreamPart& next = stream_.parts[pos + 1];
  const StreamOutput* outs = stream_.outputs.data();
  uint64_t* save = outputSave_.data();

  // Save old output values.
  {
    const uint64_t* vals = state_.vals.data();
    for (uint32_t oi = part.out; oi < next.out; oi++) {
      const StreamOutput& o = outs[oi];
      for (uint32_t i = 0; i < o.nwords; i++) save[o.saveOff + i] = vals[o.valOff + i];
    }
  }

  // Full-cycle style straight-line evaluation of the partition's ops;
  // combinational-loop supernode runs iterate to convergence.
  const ExecOp* ops = stream_.ops.data();
  uint32_t k = part.op;
  for (uint32_t si = part.super; si < next.super; si++) {
    const StreamSuper& sn = stream_.supers[si];
    for (; k < sn.begin; k++) sim::evalExecOp(*ir_, layout_, state_, ops[k]);
    sim::evalSuperRange(*ir_, layout_, state_, ops + sn.begin, sn.end - sn.begin);
    k = sn.end;
  }
  for (; k < next.op; k++) sim::evalExecOp(*ir_, layout_, state_, ops[k]);
  stats_.opsEvaluated += next.op - part.op;

  // Elided state updates (end of partition: every internal reader op has
  // already evaluated with the old value).
  for (uint32_t r = part.reg; r < next.reg; r++) applyRegWrite(stream_.regWrites[r]);
  for (uint32_t m = part.mem; m < next.mem; m++) applyMemWrite(stream_.memWrites[m]);

  // Push-direction triggering: wake consumers of changed outputs. The
  // change test is a branchless OR-reduction over the output's words.
  const uint64_t* vals = state_.vals.data();
  for (uint32_t oi = part.out; oi < next.out; oi++) {
    const StreamOutput& o = outs[oi];
    uint64_t diff = 0;
    for (uint32_t i = 0; i < o.nwords; i++) diff |= save[o.saveOff + i] ^ vals[o.valOff + i];
    if (diff != 0) wake(o.wakeBegin, o.wakeEnd);
  }
  stats_.outputComparisons += next.out - part.out;

  if (profiling_) {
    PartitionProfile& pp = prof_.parts[pos];
    pp.activations++;
    pp.opsEvaluated += next.op - part.op;
    pp.wakesIssued += stats_.triggerSets - wakesBefore;
  }
}

void ActivityEngine::sweepInputs() {
  // 1. External input change detection, then latch the new values.
  uint64_t* vals = state_.vals.data();
  uint64_t* prev = prevInputs_.data();
  for (const StreamOutput& in : stream_.inputs) {
    uint64_t diff = 0;
    for (uint32_t i = 0; i < in.nwords; i++) {
      diff |= prev[in.saveOff + i] ^ vals[in.valOff + i];
      prev[in.saveOff + i] = vals[in.valOff + i];
    }
    if (diff != 0 && !firstCycle_) wake(in.wakeBegin, in.wakeEnd);
  }
  firstCycle_ = false;
}

void ActivityEngine::recordProfiledCycle(uint64_t activationsDelta) {
  size_t window = static_cast<size_t>(prof_.profiledCycles / prof_.windowCycles);
  if (prof_.activationsPerWindow.size() <= window)
    prof_.activationsPerWindow.resize(window + 1, 0);
  prof_.activationsPerWindow[window] += activationsDelta;
  prof_.profiledCycles++;
}

void ActivityEngine::finishCycle() {
  // 3. Side effects from stale-but-correct enables.
  firePrintsAndStops();

  // 4. Phase 2: non-elided state elements.
  for (const StreamRegWrite& rw : stream_.deferredRegs) applyRegWrite(rw);
  for (const StreamMemWrite& mw : stream_.deferredMemWrites) applyMemWrite(mw);

  stats_.cycles++;
}

[[gnu::aligned(64)]] void ActivityEngine::tick() {
  // Busy on its own thread; None when nested inside a pool.work span (a
  // SimFarm worker already owns this interval's attribution).
  obs::TraceSpan span("tick", obs::trace_detail::inPooledWork()
                                  ? obs::TraceCat::None
                                  : obs::TraceCat::Busy,
                      obs::TraceDetail::Wave, "cycle", stats_.cycles);
  sweepInputs();

  // 2. Partition sweep (static schedule; the per-partition flag check is
  //    the static overhead).
  stats_.partitionChecks += sched_.parts.size();
  const uint64_t activationsBefore = stats_.partitionActivations;
  for (size_t w = 0; w < active_.size(); w++) {
    uint64_t pending = active_[w];
    while (pending != 0) {
      unsigned bit = static_cast<unsigned>(__builtin_ctzll(pending));
      pending &= pending - 1;
      active_[w] &= ~(uint64_t{1} << bit);  // deactivate for the next cycle first (Figure 1)
      size_t pos = w * 64 + bit;
      runPartition(pos);
      // Pick up later partitions of this word that this one newly woke;
      // bits at or below `bit` wait for the next cycle (2 << 63 wraps to 0,
      // which masks off the whole word). The rare-branch form keeps the
      // next ctz off the load of the word this partition just wrote.
      uint64_t woken = active_[w] & ~((uint64_t{2} << bit) - 1) & ~pending;
      if (__builtin_expect(woken != 0, 0)) pending |= woken;
    }
  }
  if (profiling_) recordProfiledCycle(stats_.partitionActivations - activationsBefore);

  finishCycle();
}

double ActivityEngine::effectiveActivity() const {
  uint64_t total = static_cast<uint64_t>(ir_->ops.size()) * stats_.cycles;
  return total == 0 ? 0.0 : static_cast<double>(stats_.opsEvaluated) / static_cast<double>(total);
}

}  // namespace essent::core
