#include "core/activity_engine.h"

#include "obs/trace.h"
#include "sim/op_eval.h"

namespace essent::core {

using sim::ExecOp;
using sim::MemInfo;
using sim::RegInfo;

namespace {

std::shared_ptr<const CcssSchedule> buildCcssSchedule(const sim::CompiledDesign& design,
                                                      CondPartSchedule sched) {
  auto body = std::make_shared<CcssSchedule>();
  body->sched = std::move(sched);
  // Lay out the flat old-value save area, one slot span per output.
  uint32_t off = 0;
  body->partOutBase.reserve(body->sched.parts.size());
  for (const auto& part : body->sched.parts) {
    body->partOutBase.push_back(body->outputSaveOff.size());
    for (const auto& o : part.outputs) {
      body->outputSaveOff.push_back(off);
      off += design.layout.nwords[o.sig];
    }
  }
  body->saveWords = off;
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
      outputSaveOff_(ccss_->body->outputSaveOff),
      partOutBase_(ccss_->body->partOutBase) {
  active_.assign((sched_.parts.size() + 63) / 64, 0);
  activateAll();
  prevInputs_.assign(layout_.totalWords, 0);
  outputSave_.assign(ccss_->body->saveWords, 0);
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

void ActivityEngine::wake(const std::vector<int32_t>& parts) {
  for (int32_t p : parts) {
    auto pos = static_cast<size_t>(p);
    active_[pos / 64] |= uint64_t{1} << (pos % 64);
  }
  stats_.triggerSets += parts.size();
}

void ActivityEngine::applyRegWrite(const SchedRegWrite& rw) {
  const RegInfo& r = ir_->regs[static_cast<size_t>(rw.regIdx)];
  stats_.outputComparisons++;
  if (sigValsEqual(r.sig, r.next)) return;
  copySigWords(r.sig, r.next);
  // All readers already ran this cycle (ordering edges), so these flags
  // take effect next cycle — the paper's immediate-wakeup insight.
  wake(rw.wakeParts);
}

void ActivityEngine::applyMemWrite(const SchedMemWrite& mw) {
  const MemInfo& mem = ir_->mems[static_cast<size_t>(mw.memIdx)];
  const sim::MemWriter& w = mem.writers[static_cast<size_t>(mw.writerIdx)];
  if (state_.vals[layout_.offset[w.en]] == 0) return;
  if (state_.vals[layout_.offset[w.mask]] == 0) return;
  uint64_t addr = state_.vals[layout_.offset[w.addr]];
  if (addr >= mem.depth) return;
  uint32_t rw = state_.memRowWords[static_cast<size_t>(mw.memIdx)];
  uint32_t off = layout_.offset[w.data];
  auto& words = state_.memWords[static_cast<size_t>(mw.memIdx)];
  bool changed = false;
  stats_.outputComparisons++;
  for (uint32_t i = 0; i < rw; i++) {
    if (words[addr * rw + i] != state_.vals[off + i]) {
      words[addr * rw + i] = state_.vals[off + i];
      changed = true;
    }
  }
  if (changed) wake(mw.wakeParts);
}

// 64-byte aligned, like tick(): see evalFastScalar in sim/op_eval.h.
[[gnu::aligned(64)]] void ActivityEngine::runPartition(size_t pos, const CondPart& part) {
  obs::TraceSpan span("part", obs::TraceCat::None, obs::TraceDetail::Partition,
                      "part", pos);
  stats_.partitionActivations++;
  const uint64_t wakesBefore = stats_.triggerSets;

  // Save old output values.
  size_t outBase = partOutBase_[pos];
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    uint32_t so = outputSaveOff_[outBase + oi];
    uint32_t vo = layout_.offset[o.sig];
    for (uint32_t i = 0; i < layout_.nwords[o.sig]; i++)
      outputSave_[so + i] = state_.vals[vo + i];
  }

  // Full-cycle style straight-line evaluation of the partition's ops;
  // combinational-loop supernodes (always wholly contained in one
  // partition) iterate to convergence.
  if (!ir_->hasCombLoops()) {
    for (int32_t opIdx : part.ops)
      sim::evalExecOp(*ir_, layout_, state_, exec_[static_cast<size_t>(opIdx)]);
  } else {
    for (size_t k = 0; k < part.ops.size();) {
      int32_t opIdx = part.ops[k];
      int32_t super = ir_->superOf(static_cast<size_t>(opIdx));
      if (super < 0) {
        sim::evalExecOp(*ir_, layout_, state_, exec_[static_cast<size_t>(opIdx)]);
        k++;
        continue;
      }
      size_t j = k;
      while (j < part.ops.size() &&
             ir_->superOf(static_cast<size_t>(part.ops[j])) == super)
        j++;
      sim::evalSuperRange(*ir_, layout_, state_, exec_.data() + opIdx, j - k);
      k = j;
    }
  }
  stats_.opsEvaluated += part.ops.size();

  // Elided state updates (end of partition: every internal reader op has
  // already evaluated with the old value).
  for (const auto& rw : part.regWrites) applyRegWrite(rw);
  for (const auto& mw : part.memWrites) applyMemWrite(mw);

  // Push-direction triggering: wake consumers of changed outputs. The
  // change test is a branchless OR-reduction over the output's words.
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    uint32_t so = outputSaveOff_[outBase + oi];
    uint32_t vo = layout_.offset[o.sig];
    uint64_t diff = 0;
    for (uint32_t i = 0; i < layout_.nwords[o.sig]; i++)
      diff |= outputSave_[so + i] ^ state_.vals[vo + i];
    stats_.outputComparisons++;
    if (diff != 0) wake(o.consumers);
  }

  if (profiling_) {
    PartitionProfile& pp = prof_.parts[pos];
    pp.activations++;
    pp.opsEvaluated += part.ops.size();
    pp.wakesIssued += stats_.triggerSets - wakesBefore;
  }
}

void ActivityEngine::sweepInputs() {
  // 1. External input change detection.
  if (!firstCycle_) {
    for (size_t i = 0; i < ir_->inputs.size(); i++) {
      int32_t in = ir_->inputs[i];
      if (!sigWordsEqual(in, prevInputs_.data() + layout_.offset[in]))
        wake(sched_.inputConsumers[i]);
    }
  }
  for (int32_t in : ir_->inputs) {
    uint32_t off = layout_.offset[in];
    for (uint32_t i = 0; i < layout_.nwords[in]; i++) prevInputs_[off + i] = state_.vals[off + i];
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
  for (const auto& rw : sched_.deferredRegs) applyRegWrite(rw);
  for (const auto& mw : sched_.deferredMemWrites) applyMemWrite(mw);

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
      runPartition(pos, sched_.parts[pos]);
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
