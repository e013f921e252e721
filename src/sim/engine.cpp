#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>

#include "sim/op_eval.h"
#include "support/strutil.h"

namespace essent::sim {

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(SimIR ir) {
  auto d = std::make_shared<CompiledDesign>();
  d->ir = std::move(ir);
  isolateRegisterAliases(d->ir);
  d->layout = Layout::build(d->ir);
  d->exec = compileExec(d->ir, d->layout);
  return d;
}

std::shared_ptr<const void> CompiledDesign::getOrBuildExtErased(
    const std::string& key,
    const std::function<std::shared_ptr<const void>()>& build) const {
  std::lock_guard<std::mutex> lock(extMu_);
  auto it = ext_.find(key);
  if (it != ext_.end()) return it->second;
  std::shared_ptr<const void> value = build();
  ext_.emplace(key, value);
  return value;
}

Engine::Engine(std::shared_ptr<const CompiledDesign> design)
    : design_(std::move(design)),
      ir_(&design_->ir),
      layout_(design_->layout),
      exec_(design_->exec),
      state_(SimState::build(design_->ir, design_->layout)) {
  for (const auto& s : ir_->signals)
    if (s.kind != SigKind::Dead && s.kind != SigKind::Temp) designSignals_++;
  evalConstOps();
}

Engine::Engine(std::shared_ptr<const CompiledDesign> design, ViewTag)
    : design_(std::move(design)),
      ir_(&design_->ir),
      layout_(design_->layout),
      exec_(design_->exec) {
  // No SimState, no const-op evaluation: the derived view overrides every
  // state accessor and keeps its values elsewhere.
  for (const auto& s : ir_->signals)
    if (s.kind != SigKind::Dead && s.kind != SigKind::Temp) designSignals_++;
}

void Engine::evalConstOps() {
  for (const ExecOp& op : exec_)
    if (op.code == OpCode::Const) evalExecOp(*ir_, layout_, state_, op);
}

int32_t Engine::sigIdOrThrow(const std::string& name) const {
  int32_t id = ir_->findSignal(name);
  if (id < 0) throw std::out_of_range("no signal named '" + name + "'");
  return id;
}

void Engine::poke(const std::string& name, uint64_t value) {
  int32_t id = sigIdOrThrow(name);
  const Signal& s = ir_->signals[static_cast<size_t>(id)];
  uint32_t off = layout_.offset[id];
  state_.vals[off] = value & maskW(s.width);
  for (uint32_t i = 1; i < layout_.nwords[id]; i++) state_.vals[off + i] = 0;
}

void Engine::pokeBV(const std::string& name, const BitVec& value) {
  int32_t id = sigIdOrThrow(name);
  storeBV(state_, layout_, *ir_, id, value, false);
}

uint64_t Engine::peek(const std::string& name) const {
  return state_.vals[layout_.offset[sigIdOrThrow(name)]];
}

BitVec Engine::peekBV(const std::string& name) const {
  return loadBV(state_, layout_, *ir_, sigIdOrThrow(name));
}

BitVec Engine::peekSigBV(int32_t sig) const { return loadBV(state_, layout_, *ir_, sig); }

namespace {
size_t memIndexOrThrow(const SimIR& ir, const std::string& name) {
  for (size_t m = 0; m < ir.mems.size(); m++)
    if (ir.mems[m].name == name) return m;
  throw std::out_of_range("no memory named '" + name + "'");
}
}  // namespace

void Engine::pokeMem(const std::string& memName, uint64_t addr, uint64_t value) {
  size_t m = memIndexOrThrow(*ir_, memName);
  if (addr >= ir_->mems[m].depth) throw std::out_of_range("mem address out of range");
  uint32_t rw = state_.memRowWords[m];
  state_.memWords[m][addr * rw] = value & maskW(std::min(ir_->mems[m].width, 64u));
  for (uint32_t i = 1; i < rw; i++) state_.memWords[m][addr * rw + i] = 0;
}

uint64_t Engine::peekMem(const std::string& memName, uint64_t addr) const {
  size_t m = memIndexOrThrow(*ir_, memName);
  if (addr >= ir_->mems[m].depth) throw std::out_of_range("mem address out of range");
  return state_.memWords[m][addr * state_.memRowWords[m]];
}

void Engine::resetState() {
  state_.clear();
  stats_.resetCounters();
  stopped_ = false;
  exitCode_ = 0;
  printBuf_.clear();
  evalConstOps();
}

void Engine::randomizeState(uint64_t seed) {
  // SplitMix-style draws keyed by (seed, slot) so every engine produces the
  // same randomization for the same IR.
  auto draw = [seed](uint64_t slot) { return stateRandomDraw(seed, slot); };
  uint64_t slot = 0;
  for (const RegInfo& r : ir_->regs) {
    uint32_t off = layout_.offset[r.sig];
    uint32_t w = ir_->signals[static_cast<size_t>(r.sig)].width;
    for (uint32_t i = 0; i < layout_.nwords[r.sig]; i++) state_.vals[off + i] = draw(slot++);
    // Re-canonicalize the top word.
    if (w % 64 != 0)
      state_.vals[off + layout_.nwords[r.sig] - 1] &= BitVec::topWordMask(w);
    if (w == 0) state_.vals[off] = 0;
  }
  for (size_t m = 0; m < ir_->mems.size(); m++) {
    uint32_t w = ir_->mems[m].width;
    uint32_t rw = state_.memRowWords[m];
    for (uint64_t row = 0; row < ir_->mems[m].depth; row++) {
      for (uint32_t i = 0; i < rw; i++) state_.memWords[m][row * rw + i] = draw(slot++);
      if (w % 64 != 0) state_.memWords[m][row * rw + rw - 1] &= BitVec::topWordMask(w);
    }
  }
  onStateClobbered();
}

Engine::Snapshot Engine::saveState() const {
  Snapshot s;
  s.vals = state_.vals;
  s.memWords = state_.memWords;
  s.stopped = stopped_;
  s.exitCode = exitCode_;
  return s;
}

void Engine::restoreState(const Snapshot& snapshot) {
  if (snapshot.vals.size() != state_.vals.size() ||
      snapshot.memWords.size() != state_.memWords.size())
    throw std::invalid_argument("snapshot does not match this engine's design");
  state_.vals = snapshot.vals;
  state_.memWords = snapshot.memWords;
  stopped_ = snapshot.stopped;
  exitCode_ = snapshot.exitCode;
  onStateClobbered();
}

bool Engine::sigWordsEqual(int32_t sig, const uint64_t* other) const {
  uint32_t off = layout_.offset[sig];
  for (uint32_t i = 0; i < layout_.nwords[sig]; i++)
    if (state_.vals[off + i] != other[i]) return false;
  return true;
}

void Engine::copySigWords(int32_t dst, int32_t src) {
  uint32_t od = layout_.offset[dst], os = layout_.offset[src];
  for (uint32_t i = 0; i < layout_.nwords[dst]; i++) state_.vals[od + i] = state_.vals[os + i];
}

bool Engine::sigValsEqual(int32_t a, int32_t b) const {
  uint32_t oa = layout_.offset[a], ob = layout_.offset[b];
  for (uint32_t i = 0; i < layout_.nwords[a]; i++)
    if (state_.vals[oa + i] != state_.vals[ob + i]) return false;
  return true;
}

void Engine::firePrintsAndStops() {
  for (const auto& p : ir_->prints) {
    if (state_.vals[layout_.offset[p.en]] != 0)
      printBuf_ += formatPrintf(*ir_, layout_, state_, p);
  }
  for (const auto& s : ir_->stops) {
    if (state_.vals[layout_.offset[s.en]] != 0 && !stopped_) {
      stopped_ = true;
      exitCode_ = s.exitCode;
    }
  }
  for (const auto& a : ir_->asserts) {
    if (state_.vals[layout_.offset[a.en]] != 0 &&
        state_.vals[layout_.offset[a.pred]] == 0 && !stopped_) {
      printBuf_ += "assertion failed: " + a.message + "\n";
      stopped_ = true;
      exitCode_ = 65;
    }
  }
}

std::string formatPrintf(const SimIR& ir, const Layout& lay, const SimState& st,
                         const PrintInfo& p) {
  std::string out;
  size_t argIdx = 0;
  for (size_t i = 0; i < p.format.size(); i++) {
    char c = p.format[i];
    if (c != '%' || i + 1 >= p.format.size()) {
      out += c;
      continue;
    }
    char f = p.format[++i];
    if (f == '%') {
      out += '%';
      continue;
    }
    if (argIdx >= p.args.size()) {
      out += '%';
      out += f;
      continue;
    }
    int32_t sig = p.args[argIdx++];
    BitVec v = loadBV(st, lay, ir, sig);
    bool sgn = ir.signals[static_cast<size_t>(sig)].isSigned;
    switch (f) {
      case 'd':
        out += sgn ? v.toSignedDecString() : v.toDecString();
        break;
      case 'x':
        out += v.toHexString();
        break;
      case 'b':
        out += v.toBinString();
        break;
      case 'c':
        out += static_cast<char>(v.toU64() & 0xff);
        break;
      default:
        out += '%';
        out += f;
        break;
    }
  }
  return out;
}

}  // namespace essent::sim
