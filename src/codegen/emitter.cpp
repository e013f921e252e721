#include "codegen/emitter.h"

#include <algorithm>

#include <unordered_map>
#include <unordered_set>

#include "obs/phase_timer.h"
#include "support/strutil.h"

namespace essent::codegen {

using core::CondPartSchedule;
using sim::Op;
using sim::OpCode;
using sim::SigKind;
using sim::SimIR;

namespace {

bool isPort(const sim::Signal& sig) {
  return sig.kind == SigKind::Input || sig.kind == SigKind::Output;
}

// Top-level ports keep their (sanitized, collision-free) names as struct
// members; every other signal is the arena word `st_[k]` at its
// sim::Layout offset k.
std::vector<std::string> buildNames(const SimIR& ir, const sim::Layout& layout) {
  std::vector<std::string> names(ir.signals.size());
  std::unordered_set<std::string> used = {"eval", "st_",          "act_",    "prev_",
                                          "first_cycle_", "cycles_", "stopped_", "exit_code_"};
  for (size_t s = 0; s < ir.signals.size(); s++) {
    const auto& sig = ir.signals[s];
    if (!isPort(sig)) {
      names[s] = strfmt("st_[%u]", layout.offset[s]);
      continue;
    }
    std::string base = sanitizeIdent(sig.name);
    std::string name = base;
    int suffix = 1;
    while (!used.insert(name).second) name = base + "_" + std::to_string(suffix++);
    names[s] = name;
  }
  return names;
}

std::string maskExpr(const std::string& e, uint32_t width) {
  if (width >= 64) return e;
  return strfmt("(%s) & 0x%llxull", e.c_str(), static_cast<unsigned long long>((1ull << width) - 1));
}

// The emitted program before it is split into files: `header` declares the
// simulator struct and the cross-unit functions, `units[k]` holds the
// definitions of unit k (inside namespace essent_gen).
struct Units {
  std::string header;
  std::vector<std::string> units;
};

// All generated evaluation code lives in free functions over `Simulator& s`
// (eval() binds `s` to *this), so every signal reference is `s.` + its
// member name.
class Emitter {
 public:
  Emitter(const SimIR& ir, const CondPartSchedule* sched, const CodegenOptions& opts)
      : ir_(ir), sched_(sched), opts_(opts), layout_(sim::Layout::build(ir)) {
    for (const auto& sig : ir.signals) {
      if (sig.kind != SigKind::Dead && sig.width > 64)
        throw CodegenError("signal '" + sig.name + "' is wider than 64 bits; the C++ backend "
                           "emits uint64_t storage (use the in-process engines instead)");
    }
    if (opts.ccss && !sched) throw CodegenError("CCSS mode requires a schedule");
    names_ = buildNames(ir, layout_);
    for (auto& n : names_) n.insert(0, "s.");
    resetSig_ = ir.findSignal("reset");
    computeUseCounts();
  }

  Units run(uint32_t shards) {
    const std::string& cn = opts_.className;

    // Work functions, in schedule order: one per partition (CCSS) or one
    // per contiguous op slice (baseline). They are file-static; each unit
    // exports one sweep_<k>() that calls its own in order.
    std::vector<std::string> defs, calls;
    if (opts_.ccss) {
      for (size_t pos = 0; pos < sched_->parts.size(); pos++) {
        out_.clear();
        emitPartitionFunction(pos);
        defs.push_back(std::move(out_));
        calls.push_back(strfmt("  if (s.act_[%zu]) part_%zu(s);\n", pos, pos));
      }
    } else {
      std::vector<int32_t> all(ir_.ops.size());
      for (size_t i = 0; i < all.size(); i++) all[i] = static_cast<int32_t>(i);
      const size_t per = all.size() / std::max<uint32_t>(1, shards) + 1;
      size_t from = 0;
      while (from < all.size()) {
        size_t to = std::min(all.size(), from + per);
        // Never split a combinational-loop supernode's convergence run.
        while (to < all.size() &&
               ir_.superOf(static_cast<size_t>(all[to])) >= 0 &&
               ir_.superOf(static_cast<size_t>(all[to])) ==
                   ir_.superOf(static_cast<size_t>(all[to - 1])))
          to++;
        const size_t k = defs.size();
        out_.clear();
        out_ += strfmt("static void chunk_%zu(%s& s) {\n", k, cn.c_str());
        emitOpSeq(std::vector<int32_t>(all.begin() + static_cast<ptrdiff_t>(from),
                                       all.begin() + static_cast<ptrdiff_t>(to)),
                  "  ");
        out_ += "}\n\n";
        defs.push_back(std::move(out_));
        calls.push_back(strfmt("  chunk_%zu(s);\n", k));
        from = to;
      }
    }

    // finish_(): side effects + phase-2 state updates + cycle count.
    out_.clear();
    out_ += strfmt("void finish_(%s& s) {\n", cn.c_str());
    emitPrintsAndStops("  ");
    if (opts_.ccss) {
      for (const auto& rw : sched_->deferredRegs) emitRegWrite(rw.regIdx, &rw.wakeParts, "  ");
      for (const auto& mw : sched_->deferredMemWrites)
        emitMemWrite(mw.memIdx, mw.writerIdx, &mw.wakeParts, "  ");
    } else {
      for (size_t r = 0; r < ir_.regs.size(); r++)
        emitRegWrite(static_cast<int32_t>(r), nullptr, "  ");
      for (size_t m = 0; m < ir_.mems.size(); m++)
        for (size_t w = 0; w < ir_.mems[m].writers.size(); w++)
          emitMemWrite(static_cast<int32_t>(m), static_cast<int32_t>(w), nullptr, "  ");
    }
    out_ += "  s.cycles_++;\n}\n\n";
    const std::string finishDef = std::move(out_);

    // Contiguous assignment of work functions to units, balanced by
    // emitted byte count (schedule order is preserved by the sweeps, so
    // placement only affects compile-time balance).
    const uint32_t S = std::max<uint32_t>(
        1, std::min<uint32_t>(shards, static_cast<uint32_t>(std::max<size_t>(1, defs.size()))));
    size_t totalBytes = 0;
    for (const auto& d : defs) totalBytes += d.size();
    std::vector<std::pair<size_t, size_t>> range(S, {0, 0});
    {
      size_t i = 0, acc = 0;
      for (uint32_t k = 0; k < S; k++) {
        range[k].first = i;
        const size_t goal = totalBytes * (k + 1) / S;
        while (i < defs.size() && (acc < goal || k + 1 == S)) acc += defs[i++].size();
        range[k].second = i;
      }
    }

    Units u;
    out_.clear();
    emitHeader(S);
    u.header = std::move(out_);
    for (uint32_t k = 0; k < S; k++) {
      std::string unit;
      for (size_t i = range[k].first; i < range[k].second; i++) unit += defs[i];
      unit += strfmt("void sweep_%u(%s& s) {\n", k, cn.c_str());
      for (size_t i = range[k].first; i < range[k].second; i++) unit += calls[i];
      unit += "}\n\n";
      if (k + 1 == S) unit += finishDef;
      if (k == 0) {
        out_.clear();
        emitConstructorAndEval(S);
        unit += out_;
      }
      u.units.push_back(std::move(unit));
    }
    return u;
  }

 private:
  const SimIR& ir_;
  const CondPartSchedule* sched_;
  CodegenOptions opts_;
  sim::Layout layout_;
  std::vector<std::string> names_;  // "s." + memberName
  std::string out_;
  int32_t resetSig_ = -1;
  // Number of consumers of each signal across the whole program; named
  // signals are pinned (never sinkable into a mux way) with a sentinel.
  std::vector<uint32_t> useCount_;

  void computeUseCounts() {
    useCount_.assign(ir_.signals.size(), 0);
    auto use = [&](int32_t s) {
      if (s >= 0) useCount_[static_cast<size_t>(s)]++;
    };
    for (const auto& op : ir_.ops) {
      int n = op.numArgs();
      for (int k = 0; k < n; k++) use(op.args[k]);
    }
    for (const auto& r : ir_.regs) use(r.next);
    for (const auto& m : ir_.mems) {
      for (const auto& rd : m.readers) {
        use(rd.addr);
        use(rd.en);
      }
      for (const auto& w : m.writers) {
        use(w.addr);
        use(w.en);
        use(w.data);
        use(w.mask);
      }
    }
    for (const auto& p : ir_.prints) {
      use(p.en);
      for (int32_t a : p.args) use(a);
    }
    for (const auto& s : ir_.stops) use(s.en);
    if (sched_) {
      for (const auto& part : sched_->parts)
        for (const auto& o : part.outputs) use(o.sig);
    }
    // Observability pin: only anonymous temporaries may go stale.
    for (size_t s = 0; s < ir_.signals.size(); s++)
      if (ir_.signals[s].kind != SigKind::Temp) useCount_[s] += 1000;
  }

  const std::string& name(int32_t sig) const { return names_[static_cast<size_t>(sig)]; }
  uint32_t width(int32_t sig) const { return ir_.signals[static_cast<size_t>(sig)].width; }
  bool isSigned(int32_t sig) const { return ir_.signals[static_cast<size_t>(sig)].isSigned; }

  std::string sx(int32_t sig) const {
    return strfmt("sx_(%s, %u)", name(sig).c_str(), width(sig));
  }
  std::string sxU(int32_t sig) const {
    return strfmt("(uint64_t)sx_(%s, %u)", name(sig).c_str(), width(sig));
  }

  static std::string memArray(const sim::MemInfo& m) { return "mem_" + sanitizeIdent(m.name); }

  // The shared declarations: helpers, the simulator struct (ports as named
  // members, every other signal in the st_ arena) and the S sweeps plus
  // finish_() that eval() calls across units.
  void emitHeader(uint32_t S) {
    const std::string& cn = opts_.className;
    out_ +=
        "// Generated by essent-cpp (ESSENT reproduction). Do not edit.\n"
        "#include <cstdint>\n#include <cstdio>\n\n"
        "namespace essent_gen {\n\n"
        "static inline int64_t sx_(uint64_t v, int w) {\n"
        "  if (w == 0) return 0;\n"
        "  if (w >= 64) return (int64_t)v;\n"
        "  uint64_t m = 1ull << (w - 1);\n"
        "  return (int64_t)((v ^ m) - m);\n"
        "}\n"
        "static inline void printBin_(uint64_t v, int w) {\n"
        "  for (int i = w - 1; i >= 0; i--) std::putchar(((v >> i) & 1) ? '1' : '0');\n"
        "}\n\n";
    out_ += "struct " + cn + " {\n";
    out_ += "  // --- top-level ports ---\n";
    for (size_t s = 0; s < ir_.signals.size(); s++) {
      const auto& sig = ir_.signals[s];
      if (!isPort(sig)) continue;
      const int32_t def = sig.defOp;
      std::string init = "0";
      if (def >= 0 && ir_.ops[static_cast<size_t>(def)].code == OpCode::Const)
        init = constLiteral(ir_.ops[static_cast<size_t>(def)]);
      const std::string member = names_[s].substr(2);  // drop "s."
      out_ += strfmt("  uint64_t %s = %s;  // width %u%s\n", member.c_str(), init.c_str(),
                     sig.width, sig.isSigned ? " (signed)" : "");
    }
    out_ += "  // --- every other signal: one word at its layout offset ---\n";
    out_ += strfmt("  uint64_t st_[%u] = {};\n", layout_.totalWords);
    for (const auto& m : ir_.mems)
      out_ += strfmt("  uint64_t %s[%llu] = {};\n", memArray(m).c_str(),
                     static_cast<unsigned long long>(m.depth));
    out_ += "  uint64_t cycles_ = 0;\n  bool stopped_ = false;\n  int exit_code_ = 0;\n";
    if (opts_.ccss) {
      out_ += strfmt("  bool act_[%zu];\n", sched_->parts.size());
      if (!ir_.inputs.empty())
        out_ += strfmt("  uint64_t prev_[%zu] = {};  // last seen input values\n",
                       ir_.inputs.size());
      out_ += "  bool first_cycle_ = true;\n";
    }
    out_ += "  " + cn + "();\n";
    out_ += "  void eval();  // advances one clock cycle\n";
    out_ += "};\n\n";
    out_ += strfmt("// --- evaluation: one sweep per translation unit (%u), then finish_() ---\n",
                   S);
    for (uint32_t k = 0; k < S; k++) out_ += strfmt("void sweep_%u(%s& s);\n", k, cn.c_str());
    out_ += strfmt("void finish_(%s& s);\n", cn.c_str());
    out_ += "\n}  // namespace essent_gen\n";
  }

  std::string constLiteral(const Op& op) const {
    return "0x" + ir_.constPool[static_cast<size_t>(op.imm0)].toHexString() + "ull";
  }

  // The constructor sets every constant once from an {offset, value} table
  // (constants are never re-evaluated) and marks every partition active;
  // eval() detects input changes, then runs the unit sweeps and finish_().
  void emitConstructorAndEval(uint32_t S) {
    const std::string& cn = opts_.className;
    std::string table;
    for (const auto& op : ir_.ops)
      if (op.code == OpCode::Const && !isPort(ir_.signals[static_cast<size_t>(op.dest)]))
        table += strfmt("    {%u, %s},\n", layout_.offset[static_cast<size_t>(op.dest)],
                        constLiteral(op).c_str());
    out_ += strfmt("%s::%s() {\n", cn.c_str(), cn.c_str());
    if (!table.empty()) {
      out_ += "  static const struct { uint32_t k; uint64_t v; } kConsts[] = {\n" + table;
      out_ += "  };\n  for (const auto& c : kConsts) st_[c.k] = c.v;\n";
    }
    if (opts_.ccss) out_ += "  for (auto& a : act_) a = true;\n";
    out_ += "}\n\n";
    out_ += strfmt("void %s::eval() {\n  %s& s = *this;\n", cn.c_str(), cn.c_str());
    if (opts_.ccss) {
      out_ += "  // 1. external input change detection\n";
      emitInputSweep("  ");
      out_ += "  s.first_cycle_ = false;\n";
      out_ += "  // 2. singular static partition sweep, one sweep per unit\n";
    }
    for (uint32_t k = 0; k < S; k++) out_ += strfmt("  essent_gen::sweep_%u(s);\n", k);
    out_ += "  // side effects + phase-2 state updates\n  essent_gen::finish_(s);\n}\n\n";
  }

  // RHS expression implementing `op` (pre-mask); mirrors sim/op_eval.h's
  // fast path exactly so generated simulators match the interpreter
  // bit-for-bit.
  std::string opExpr(const Op& op) {
    const bool sg = op.signedOp;
    auto A = [&] { return name(op.args[0]); };
    auto B = [&] { return name(op.args[1]); };
    auto binArith = [&](const char* sym) {
      if (sg)
        return strfmt("(uint64_t)(%s %s %s)", sx(op.args[0]).c_str(), sym, sx(op.args[1]).c_str());
      return strfmt("(%s %s %s)", A().c_str(), sym, B().c_str());
    };
    auto cmp = [&](const char* sym) {
      if (sg)
        return strfmt("(uint64_t)(%s %s %s)", sx(op.args[0]).c_str(), sym, sx(op.args[1]).c_str());
      return strfmt("(uint64_t)(%s %s %s)", A().c_str(), sym, B().c_str());
    };
    uint32_t aW = op.args[0] >= 0 ? width(op.args[0]) : 0;
    uint32_t bW = op.args[1] >= 0 ? width(op.args[1]) : 0;
    uint32_t dW = width(op.dest);
    switch (op.code) {
      case OpCode::Add: return binArith("+");
      case OpCode::Sub: return binArith("-");
      case OpCode::Mul:
        if (sg) return strfmt("((uint64_t)%s * (uint64_t)%s)", sx(op.args[0]).c_str(), sx(op.args[1]).c_str());
        return binArith("*");
      case OpCode::Div:
        if (sg)
          return strfmt("(%s == 0 ? 0 : (uint64_t)(%s / %s))", B().c_str(),
                        sx(op.args[0]).c_str(), sx(op.args[1]).c_str());
        return strfmt("(%s == 0 ? 0 : %s / %s)", B().c_str(), A().c_str(), B().c_str());
      case OpCode::Rem:
        // x % 0 := x truncated to the result width (bvops::rem semantics;
        // native C++ % would trap). The signed form also guards the divisor
        // -1: INT64_MIN % -1 is UB in C++ but mathematically 0.
        if (sg)
          return strfmt("(%s == 0 ? %s : %s == -1 ? 0 : (uint64_t)(%s %% %s))", B().c_str(),
                        A().c_str(), sx(op.args[1]).c_str(), sx(op.args[0]).c_str(),
                        sx(op.args[1]).c_str());
        return strfmt("(%s == 0 ? %s : %s %% %s)", B().c_str(), A().c_str(), A().c_str(),
                      B().c_str());
      case OpCode::Lt: return cmp("<");
      case OpCode::Leq: return cmp("<=");
      case OpCode::Gt: return cmp(">");
      case OpCode::Geq: return cmp(">=");
      case OpCode::Eq: return cmp("==");
      case OpCode::Neq: return cmp("!=");
      case OpCode::Dshl:
        return strfmt("(%s >= %u ? 0 : %s << %s)", B().c_str(), dW, A().c_str(), B().c_str());
      case OpCode::Dshr:
        if (sg)
          return strfmt("(uint64_t)(%s >> (%s > 63 ? 63 : %s))", sx(op.args[0]).c_str(),
                        B().c_str(), B().c_str());
        return strfmt("(%s >= %u ? 0 : %s >> %s)", B().c_str(), aW, A().c_str(), B().c_str());
      case OpCode::And:
        return sg ? strfmt("(%s & %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("&");
      case OpCode::Or:
        return sg ? strfmt("(%s | %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("|");
      case OpCode::Xor:
        return sg ? strfmt("(%s ^ %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("^");
      case OpCode::Cat:
        if (bW >= 64) return B();
        return strfmt("((%s << %u) | %s)", A().c_str(), bW, B().c_str());
      case OpCode::Not: return strfmt("(~%s)", A().c_str());
      case OpCode::Andr:
        return strfmt("(uint64_t)(%s == 0x%llxull)", A().c_str(),
                      static_cast<unsigned long long>(aW >= 64 ? ~0ull : (1ull << aW) - 1));
      case OpCode::Orr: return strfmt("(uint64_t)(%s != 0)", A().c_str());
      case OpCode::Xorr: return strfmt("(uint64_t)__builtin_parityll(%s)", A().c_str());
      case OpCode::Cvt:
      case OpCode::Pad:
      case OpCode::Copy:
        return sg ? sxU(op.args[0]) : A();
      case OpCode::Neg:
        return sg ? strfmt("(uint64_t)(-%s)", sx(op.args[0]).c_str())
                  : strfmt("(~%s + 1)", A().c_str());
      case OpCode::Shl:
        return op.imm0 >= 64 ? std::string("0ull")
                             : strfmt("(%s << %lld)", A().c_str(),
                                      static_cast<long long>(op.imm0));
      case OpCode::Shr:
        if (sg)
          return strfmt("(uint64_t)(%s >> %lld)", sx(op.args[0]).c_str(),
                        static_cast<long long>(op.imm0 > 63 ? 63 : op.imm0));
        return op.imm0 >= aW ? std::string("0ull")
                             : strfmt("(%s >> %lld)", A().c_str(),
                                      static_cast<long long>(op.imm0));
      case OpCode::Bits:
        return strfmt("(%s >> %lld)", A().c_str(), static_cast<long long>(op.imm1));
      case OpCode::Head:
        return op.imm0 == 0 ? std::string("0ull")
                            : strfmt("(%s >> %u)", A().c_str(),
                                     aW - static_cast<uint32_t>(op.imm0));
      case OpCode::Tail: return A();
      case OpCode::Mux: {
        std::string sel = A();
        // Branch hint (§III-B2): reset-selected mux ways are cold.
        if (opts_.branchHints && op.args[0] == resetSig_)
          sel = strfmt("__builtin_expect(%s, 0)", sel.c_str());
        std::string tv = sg ? sxU(op.args[1]) : B();
        std::string fv = sg ? sxU(op.args[2]) : name(op.args[2]);
        return strfmt("(%s ? %s : %s)", sel.c_str(), tv.c_str(), fv.c_str());
      }
      case OpCode::Const:
        return strfmt("0x%sull",
                      ir_.constPool[static_cast<size_t>(op.imm0)].toHexString().c_str());
      case OpCode::MemRead: {
        const auto& m = ir_.mems[static_cast<size_t>(op.imm0)];
        return strfmt("((%s != 0 && %s < %llu) ? s.%s[%s] : 0)", B().c_str(), A().c_str(),
                      static_cast<unsigned long long>(m.depth), memArray(m).c_str(),
                      A().c_str());
      }
    }
    return "0";
  }

  void emitOp(const Op& op, const std::string& indent) {
    out_ += indent + name(op.dest) + " = " + maskExpr(opExpr(op), width(op.dest)) + ";\n";
  }

  // --- conditional evaluation of multiplexor ways (§III-B) ---

  // Emits a sequence of ops (ascending topo order). With muxShadow on, any
  // op whose result is consumed only inside one arm of a mux in the same
  // sequence is sunk into that arm's branch, so the untaken way costs
  // nothing. Constants never appear here (they are set once by the
  // constructor).
  // Emits positions [from, to) of `ops` as a convergence loop over a
  // combinational-loop supernode (paper §II).
  size_t emitSuperRun(const std::vector<int32_t>& ops, size_t from, const std::string& indent) {
    int32_t super = ir_.superOf(static_cast<size_t>(ops[from]));
    size_t to = from;
    while (to < ops.size() && ir_.superOf(static_cast<size_t>(ops[to])) == super) to++;
    out_ += indent + "{ // combinational-loop supernode: iterate to convergence\n";
    out_ += indent + "  bool again_ = true;\n";
    out_ += indent + "  for (int guard_ = 0; again_ && guard_ < 1000; guard_++) {\n";
    out_ += indent + "    again_ = false;\n";
    out_ += indent + "    uint64_t prev_;\n";
    for (size_t p = from; p < to; p++) {
      const Op& op = ir_.ops[static_cast<size_t>(ops[p])];
      out_ += indent + "    prev_ = " + name(op.dest) + ";\n";
      emitOp(op, indent + "    ");
      out_ += indent + "    again_ |= prev_ != " + name(op.dest) + ";\n";
    }
    out_ += indent + "  }\n" + indent + "}\n";
    return to;
  }

  void emitOpSeq(const std::vector<int32_t>& ops, const std::string& indent) {
    if (!opts_.muxShadow) {
      for (size_t pos = 0; pos < ops.size();) {
        const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
        if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) {
          pos = emitSuperRun(ops, pos, indent);
          continue;
        }
        if (op.code != OpCode::Const) emitOp(op, indent);
        pos++;
      }
      return;
    }
    std::unordered_map<int32_t, size_t> posOfOp;
    for (size_t pos = 0; pos < ops.size(); pos++) posOfOp[ops[pos]] = pos;
    std::vector<char> sunk(ops.size(), 0);
    std::vector<std::vector<size_t>> arms[2];
    arms[0].resize(ops.size());
    arms[1].resize(ops.size());

    // Later muxes first, so an outer way can swallow an entire nested
    // mux (whose own ways are then collected when it is reached).
    for (size_t pos = ops.size(); pos-- > 0;) {
      const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
      if (op.code != OpCode::Mux) continue;
      if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) continue;  // stay in loop body
      for (int arm = 0; arm < 2; arm++) {
        std::vector<int32_t> stack = {op.args[arm + 1]};
        auto& armList = arms[arm][pos];
        while (!stack.empty()) {
          int32_t sig = stack.back();
          stack.pop_back();
          if (useCount_[static_cast<size_t>(sig)] != 1) continue;
          int32_t def = ir_.signals[static_cast<size_t>(sig)].defOp;
          if (def < 0) continue;
          auto it = posOfOp.find(def);
          if (it == posOfOp.end() || sunk[it->second]) continue;
          const Op& dop = ir_.ops[static_cast<size_t>(def)];
          if (dop.code == OpCode::Const) continue;
          if (ir_.superOf(static_cast<size_t>(def)) >= 0) continue;  // loops stay in place
          sunk[it->second] = 1;
          armList.push_back(it->second);
          int n = dop.numArgs();
          for (int k = 0; k < n; k++) stack.push_back(dop.args[k]);
        }
        std::sort(armList.begin(), armList.end());
      }
    }

    for (size_t pos = 0; pos < ops.size();) {
      if (sunk[pos]) {
        pos++;
        continue;
      }
      if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) {
        pos = emitSuperRun(ops, pos, indent);
        continue;
      }
      emitPosStructured(ops, arms, pos, indent);
      pos++;
    }
  }

  void emitPosStructured(const std::vector<int32_t>& ops,
                         const std::vector<std::vector<size_t>> (&arms)[2], size_t pos,
                         const std::string& indent) {
    const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
    if (op.code == OpCode::Const) return;  // hoisted
    if (op.code != OpCode::Mux || (arms[0][pos].empty() && arms[1][pos].empty())) {
      emitOp(op, indent);
      return;
    }
    std::string sel = name(op.args[0]);
    if (opts_.branchHints && op.args[0] == resetSig_)
      sel = strfmt("__builtin_expect(%s, 0)", sel.c_str());
    const bool sg = op.signedOp;
    auto armExpr = [&](int arm) {
      int32_t src = op.args[arm + 1];
      return maskExpr(sg ? sxU(src) : name(src), width(op.dest));
    };
    out_ += indent + "if (" + sel + ") {\n";
    for (size_t p : arms[0][pos]) emitPosStructured(ops, arms, p, indent + "  ");
    out_ += indent + "  " + name(op.dest) + " = " + armExpr(0) + ";\n";
    out_ += indent + "} else {\n";
    for (size_t p : arms[1][pos]) emitPosStructured(ops, arms, p, indent + "  ");
    out_ += indent + "  " + name(op.dest) + " = " + armExpr(1) + ";\n";
    out_ += indent + "}\n";
  }

  // Sets the activity flags of `parts`: unconditionally when `changed` is
  // empty (the caller already tested for a change), else OR'd with that
  // bool expression. A list longer than kMaxInlineWakes becomes a loop over
  // a static index table, so an output feeding thousands of partitions
  // costs its function a few statements instead of one per consumer (the
  // interpreter's flat wake array, in generated form). Each call site is
  // its own block, so the table name never collides.
  static constexpr size_t kMaxInlineWakes = 64;
  void emitWakes(const std::vector<int32_t>& parts, const std::string& changed,
                 const std::string& indent) {
    if (parts.size() <= kMaxInlineWakes) {
      for (int32_t p : parts)
        out_ += indent + (changed.empty() ? strfmt("s.act_[%d] = true;\n", p)
                                          : strfmt("s.act_[%d] |= %s;\n", p, changed.c_str()));
      return;
    }
    out_ += indent + "static const uint32_t kWake_[] = {";
    for (size_t i = 0; i < parts.size(); i++)
      out_ += (i % 16 == 0 ? "\n" + indent + "    " : std::string(" ")) +
              std::to_string(parts[i]) + ",";
    out_ += "\n" + indent + "};\n";
    out_ += indent + (changed.empty() ? "" : "if (" + changed + ") ") +
            "for (uint32_t p_ : kWake_) s.act_[p_] = true;\n";
  }

  void emitRegWrite(int32_t regIdx, const std::vector<int32_t>* wakeParts,
                    const std::string& indent) {
    const auto& r = ir_.regs[static_cast<size_t>(regIdx)];
    if (wakeParts) {
      out_ += indent + strfmt("if (%s != %s) {\n", name(r.sig).c_str(), name(r.next).c_str());
      out_ += indent + strfmt("  %s = %s;\n", name(r.sig).c_str(), name(r.next).c_str());
      emitWakes(*wakeParts, "", indent + "  ");
      out_ += indent + "}\n";
    } else {
      out_ += indent + strfmt("%s = %s;\n", name(r.sig).c_str(), name(r.next).c_str());
    }
  }

  void emitMemWrite(int32_t memIdx, int32_t writerIdx, const std::vector<int32_t>* wakeParts,
                    const std::string& indent) {
    const auto& m = ir_.mems[static_cast<size_t>(memIdx)];
    const auto& w = m.writers[static_cast<size_t>(writerIdx)];
    std::string arr = "s." + memArray(m);
    out_ += indent + strfmt("if (%s && %s && %s < %llu) {\n", name(w.en).c_str(),
                            name(w.mask).c_str(), name(w.addr).c_str(),
                            static_cast<unsigned long long>(m.depth));
    if (wakeParts && !wakeParts->empty()) {
      out_ += indent + strfmt("  if (%s[%s] != %s) {\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
      out_ += indent + strfmt("    %s[%s] = %s;\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
      emitWakes(*wakeParts, "", indent + "    ");
      out_ += indent + "  }\n";
    } else {
      out_ += indent + strfmt("  %s[%s] = %s;\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
    }
    out_ += indent + "}\n";
  }

  void emitPrintsAndStops(const std::string& indent) {
    const char* hint = opts_.branchHints ? " [[unlikely]]" : "";
    for (const auto& p : ir_.prints) {
      out_ += indent + strfmt("if (%s)%s {\n", name(p.en).c_str(), hint);
      // Translate the FIRRTL format string into printf pieces.
      size_t argIdx = 0;
      std::string lit;
      auto flushLit = [&] {
        if (lit.empty()) return;
        std::string esc;
        for (char c : lit) {
          if (c == '\n') esc += "\\n";
          else if (c == '\t') esc += "\\t";
          else if (c == '"') esc += "\\\"";
          else if (c == '\\') esc += "\\\\";
          else if (c == '%') esc += "%%";
          else esc += c;
        }
        out_ += indent + "  std::printf(\"" + esc + "\");\n";
        lit.clear();
      };
      for (size_t i = 0; i < p.format.size(); i++) {
        char c = p.format[i];
        if (c != '%' || i + 1 >= p.format.size()) {
          lit += c;
          continue;
        }
        char f = p.format[++i];
        if (f == '%') {
          lit += '%';
          continue;
        }
        if (argIdx >= p.args.size()) {
          lit += '%';
          lit += f;
          continue;
        }
        flushLit();
        int32_t arg = p.args[argIdx++];
        switch (f) {
          case 'd':
            if (isSigned(arg))
              out_ += indent + strfmt("  std::printf(\"%%lld\", (long long)%s);\n", sx(arg).c_str());
            else
              out_ += indent + strfmt("  std::printf(\"%%llu\", (unsigned long long)%s);\n",
                                      name(arg).c_str());
            break;
          case 'x':
            out_ += indent + strfmt("  std::printf(\"%%llx\", (unsigned long long)%s);\n",
                                    name(arg).c_str());
            break;
          case 'b':
            out_ += indent + strfmt("  printBin_(%s, %u);\n", name(arg).c_str(), width(arg));
            break;
          case 'c':
            out_ += indent + strfmt("  std::putchar((int)(%s & 0xff));\n", name(arg).c_str());
            break;
          default:
            lit += '%';
            lit += f;
            break;
        }
      }
      flushLit();
      out_ += indent + "}\n";
    }
    for (const auto& st : ir_.stops) {
      out_ += indent + strfmt("if (%s && !s.stopped_)%s { s.stopped_ = true; "
                              "s.exit_code_ = %d; }\n",
                              name(st.en).c_str(), hint, st.exitCode);
    }
    for (const auto& a : ir_.asserts) {
      std::string msg;
      for (char c : a.message) {
        if (c == '\n') msg += "\\n";
        else if (c == '"') msg += "\\\"";
        else if (c == '\\') msg += "\\\\";
        else if (c == '%') msg += "%%";
        else msg += c;
      }
      out_ += indent + strfmt("if (%s && !%s && !s.stopped_)%s { std::printf(\"assertion "
                              "failed: %s\\n\"); s.stopped_ = true; s.exit_code_ = 65; }\n",
                              name(a.en).c_str(), name(a.pred).c_str(), hint, msg.c_str());
    }
  }

  // One partition function: clears its own activity flag, saves its
  // outputs' old values, evaluates, then wakes the consumers of each output
  // that changed.
  void emitPartitionFunction(size_t pos) {
    const auto& part = sched_->parts[pos];
    out_ += strfmt("static void part_%zu(%s& s) {\n", pos, opts_.className.c_str());
    const std::string ind = "  ";
    out_ += ind + strfmt("s.act_[%zu] = false;\n", pos);
    for (size_t oi = 0; oi < part.outputs.size(); oi++)
      out_ += ind + strfmt("const uint64_t old%zu_ = %s;\n", oi,
                           name(part.outputs[oi].sig).c_str());
    emitOpSeq(part.ops, ind);
    for (const auto& rw : part.regWrites) emitRegWrite(rw.regIdx, &rw.wakeParts, ind);
    for (const auto& mw : part.memWrites)
      emitMemWrite(mw.memIdx, mw.writerIdx, &mw.wakeParts, ind);
    for (size_t oi = 0; oi < part.outputs.size(); oi++) {
      const auto& o = part.outputs[oi];
      // Branchless OR-reduction trigger (Figure 1).
      out_ += ind + strfmt("{ const bool ch%zu_ = old%zu_ != %s;\n", oi, oi,
                           name(o.sig).c_str());
      emitWakes(o.consumers, strfmt("ch%zu_", oi), ind + "  ");
      out_ += ind + "}\n";
    }
    out_ += "}\n\n";
  }

  void emitInputSweep(const std::string& ind) {
    for (size_t i = 0; i < ir_.inputs.size(); i++) {
      const std::string& in = name(ir_.inputs[i]);
      out_ += ind + strfmt("if (s.first_cycle_ || %s != s.prev_[%zu]) {\n", in.c_str(), i);
      emitWakes(sched_->inputConsumers[i], "", ind + "  ");
      out_ += ind + strfmt("  s.prev_[%zu] = %s;\n", i, in.c_str());
      out_ += ind + "}\n";
    }
  }
};

}  // namespace

std::string emitCpp(const SimIR& ir, const CondPartSchedule* schedule,
                    const CodegenOptions& opts) {
  obs::ScopedPhaseTimer phaseTimer("codegen");
  Units u = Emitter(ir, schedule, opts).run(1);
  return u.header + "\nnamespace essent_gen {\n\n" + u.units[0] + "}  // namespace essent_gen\n";
}

ShardedCpp emitCppSharded(const SimIR& ir, const CondPartSchedule* schedule,
                          const CodegenOptions& opts, uint32_t shards,
                          const std::string& base) {
  obs::ScopedPhaseTimer phaseTimer("codegen");
  Units u = Emitter(ir, schedule, opts).run(shards);
  ShardedCpp sh;
  sh.headerName = base + ".h";
  sh.header = "#pragma once\n" + u.header;
  const size_t S = u.units.size();
  for (size_t k = 0; k < S; k++) {
    sh.unitNames.push_back(strfmt("%s_%zu.cpp", base.c_str(), k));
    sh.units.push_back(strfmt("// Generated by essent-cpp (unit %zu of %zu). Do not edit.\n"
                              "#include \"%s\"\n\nnamespace essent_gen {\n\n",
                              k, S, sh.headerName.c_str()) +
                       u.units[k] + "}  // namespace essent_gen\n");
  }
  return sh;
}

std::string memberName(const SimIR& ir, int32_t sig) {
  return buildNames(ir, sim::Layout::build(ir))[static_cast<size_t>(sig)];
}

}  // namespace essent::codegen
