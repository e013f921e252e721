#include "sim/sim_ir.h"

#include <stdexcept>

#include "sim/op_eval.h"
#include "support/strutil.h"

namespace essent::sim {

const char* opCodeName(OpCode code) {
  switch (code) {
    case OpCode::Add: return "add";
    case OpCode::Sub: return "sub";
    case OpCode::Mul: return "mul";
    case OpCode::Div: return "div";
    case OpCode::Rem: return "rem";
    case OpCode::Lt: return "lt";
    case OpCode::Leq: return "leq";
    case OpCode::Gt: return "gt";
    case OpCode::Geq: return "geq";
    case OpCode::Eq: return "eq";
    case OpCode::Neq: return "neq";
    case OpCode::Dshl: return "dshl";
    case OpCode::Dshr: return "dshr";
    case OpCode::And: return "and";
    case OpCode::Or: return "or";
    case OpCode::Xor: return "xor";
    case OpCode::Cat: return "cat";
    case OpCode::Not: return "not";
    case OpCode::Andr: return "andr";
    case OpCode::Orr: return "orr";
    case OpCode::Xorr: return "xorr";
    case OpCode::Cvt: return "cvt";
    case OpCode::Neg: return "neg";
    case OpCode::Pad: return "pad";
    case OpCode::Shl: return "shl";
    case OpCode::Shr: return "shr";
    case OpCode::Bits: return "bits";
    case OpCode::Head: return "head";
    case OpCode::Tail: return "tail";
    case OpCode::Copy: return "copy";
    case OpCode::Mux: return "mux";
    case OpCode::Const: return "const";
    case OpCode::MemRead: return "memread";
  }
  return "?";
}

int Op::numArgs() const {
  switch (code) {
    case OpCode::Const:
      return 0;
    case OpCode::Not:
    case OpCode::Andr:
    case OpCode::Orr:
    case OpCode::Xorr:
    case OpCode::Cvt:
    case OpCode::Neg:
    case OpCode::Pad:
    case OpCode::Shl:
    case OpCode::Shr:
    case OpCode::Bits:
    case OpCode::Head:
    case OpCode::Tail:
    case OpCode::Copy:
      return 1;
    case OpCode::Mux:
      return 3;
    default:
      return 2;
  }
}

int32_t SimIR::findSignal(const std::string& name) const {
  if (nameSlots_.empty()) return -1;
  size_t mask = nameSlots_.size() - 1;
  size_t i = std::hash<std::string>{}(name)&mask;
  while (true) {
    int32_t id = nameSlots_[i];
    if (id == -1) return -1;
    if (signals[static_cast<size_t>(id)].name == name) return id;
    i = (i + 1) & mask;
  }
}

void SimIR::indexSignalName(int32_t id) {
  const std::string& name = signals[static_cast<size_t>(id)].name;
  if (name.empty()) return;
  // Grow at 3/4 load, power-of-two sizing for mask probing.
  if ((namedCount_ + 1) * 4 > nameSlots_.size() * 3) {
    size_t newSize = nameSlots_.empty() ? 64 : nameSlots_.size() * 2;
    std::vector<int32_t> old = std::move(nameSlots_);
    nameSlots_.assign(newSize, -1);
    size_t mask = newSize - 1;
    for (int32_t existing : old) {
      if (existing == -1) continue;
      size_t i = std::hash<std::string>{}(signals[static_cast<size_t>(existing)].name) & mask;
      while (nameSlots_[i] != -1) i = (i + 1) & mask;
      nameSlots_[i] = existing;
    }
  }
  size_t mask = nameSlots_.size() - 1;
  size_t i = std::hash<std::string>{}(name)&mask;
  while (true) {
    int32_t existing = nameSlots_[i];
    if (existing == -1) {
      nameSlots_[i] = id;
      namedCount_++;
      return;
    }
    if (signals[static_cast<size_t>(existing)].name == name) {
      nameSlots_[i] = id;  // same name re-registered: latest id wins
      return;
    }
    i = (i + 1) & mask;
  }
}

void SimIR::validate() const {
  std::vector<bool> defined(signals.size(), false);
  for (size_t s = 0; s < signals.size(); s++) {
    if (signals[s].kind == SigKind::Input || signals[s].kind == SigKind::Register)
      defined[s] = true;
  }
  // Supernode members may reference each other in any order (they iterate
  // to convergence), so their dests count as defined up front; members must
  // be contiguous.
  std::vector<bool> superPredef(signals.size(), false);
  for (size_t k = 0; k < supers.size(); k++) {
    const auto& members = supers[k];
    for (size_t j = 0; j < members.size(); j++) {
      defined[ops[static_cast<size_t>(members[j])].dest] = true;
      superPredef[ops[static_cast<size_t>(members[j])].dest] = true;
      if (j > 0 && members[j] != members[j - 1] + 1)
        throw std::logic_error(strfmt("supernode %zu members not contiguous", k));
      if (opSuper[static_cast<size_t>(members[j])] != static_cast<int32_t>(k))
        throw std::logic_error(strfmt("supernode %zu back-pointer mismatch", k));
    }
  }
  for (size_t i = 0; i < ops.size(); i++) {
    const Op& op = ops[i];
    if (op.dest < 0 || static_cast<size_t>(op.dest) >= signals.size())
      throw std::logic_error(strfmt("op %zu: bad dest", i));
    int n = op.numArgs();
    for (int k = 0; k < n; k++) {
      int32_t a = op.args[k];
      if (a < 0 || static_cast<size_t>(a) >= signals.size())
        throw std::logic_error(strfmt("op %zu (%s): bad arg %d", i, opCodeName(op.code), k));
      if (!defined[a])
        throw std::logic_error(strfmt("op %zu (%s): arg '%s' used before definition "
                                      "(topological order violated)",
                                      i, opCodeName(op.code), signals[a].name.c_str()));
    }
    if (defined[op.dest] && !superPredef[op.dest] &&
        signals[op.dest].kind != SigKind::Register)
      throw std::logic_error(strfmt("op %zu: signal '%s' defined twice", i,
                                    signals[op.dest].name.c_str()));
    superPredef[op.dest] = false;
    defined[op.dest] = true;
    if (signals[op.dest].defOp != static_cast<int32_t>(i))
      throw std::logic_error(strfmt("op %zu: defOp back-pointer mismatch for '%s'", i,
                                    signals[op.dest].name.c_str()));
  }
  for (const auto& r : regs) {
    if (!defined[r.next])
      throw std::logic_error("register next value never computed: " + signals[r.sig].name);
    if (signals[r.next].width != signals[r.sig].width)
      throw std::logic_error("register next width mismatch: " + signals[r.sig].name);
  }
}

size_t isolateRegisterAliases(SimIR& ir) {
  std::vector<int32_t> copyOf(ir.signals.size(), -1);  // source register -> its copy
  size_t added = 0;
  for (RegInfo& r : ir.regs) {
    const int32_t src = r.next;
    if (src < 0 || src == r.sig ||
        ir.signals[static_cast<size_t>(src)].kind != SigKind::Register)
      continue;
    int32_t& copy = copyOf[static_cast<size_t>(src)];
    if (copy < 0) {
      // Appending keeps the op list topological: the source is a register.
      copy = static_cast<int32_t>(ir.signals.size());
      Signal sig;
      sig.width = ir.signals[static_cast<size_t>(src)].width;
      sig.isSigned = ir.signals[static_cast<size_t>(src)].isSigned;
      sig.kind = SigKind::Temp;
      sig.defOp = static_cast<int32_t>(ir.ops.size());
      ir.signals.push_back(sig);
      Op op;
      op.code = OpCode::Copy;
      op.dest = copy;
      op.args[0] = src;
      op.signedOp = sig.isSigned;
      ir.ops.push_back(op);
      if (!ir.opSuper.empty()) ir.opSuper.push_back(-1);
      added++;
    }
    r.next = copy;
  }
  return added;
}

Layout Layout::build(const SimIR& ir) {
  Layout lay;
  lay.offset.resize(ir.signals.size());
  lay.nwords.resize(ir.signals.size());
  uint32_t off = 0;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    uint32_t nw = static_cast<uint32_t>(BitVec::numWords(ir.signals[s].width));
    lay.offset[s] = off;
    lay.nwords[s] = nw;
    off += nw;
  }
  lay.totalWords = off;
  return lay;
}

std::vector<ExecOp> compileExec(const SimIR& ir, const Layout& lay) {
  std::vector<ExecOp> exec;
  exec.reserve(ir.ops.size());
  for (const Op& op : ir.ops) {
    ExecOp e{};
    e.code = op.code;
    e.signedOp = op.signedOp;
    e.dest = op.dest;
    e.destOff = lay.offset[op.dest];
    e.destW = ir.signals[op.dest].width;
    e.imm0 = op.imm0;
    if (op.imm1 < INT32_MIN || op.imm1 > INT32_MAX)
      throw std::logic_error("compileExec: imm1 does not fit the 32-bit ExecOp field");
    e.imm1 = static_cast<int32_t>(op.imm1);
    e.aOff = e.bOff = e.cOff = UINT32_MAX;
    e.aW = e.bW = e.cW = 0;
    e.args[0] = e.args[1] = e.args[2] = -1;
    int n = op.numArgs();
    bool wide = e.destW > 64;
    auto bind = [&](int k, uint32_t& offOut, uint32_t& wOut) {
      offOut = lay.offset[op.args[k]];
      wOut = ir.signals[op.args[k]].width;
      e.args[k] = op.args[k];
      wide |= wOut > 64;
    };
    if (n >= 1) bind(0, e.aOff, e.aW);
    if (n >= 2) bind(1, e.bOff, e.bW);
    if (n >= 3) bind(2, e.cOff, e.cW);
    if (op.code == OpCode::Const) wide = e.destW > 64;
    e.fast = !wide;
    exec.push_back(e);
  }
  return exec;
}

SimState SimState::build(const SimIR& ir, const Layout& lay) {
  SimState st;
  st.vals.assign(lay.totalWords, 0);
  st.memWords.resize(ir.mems.size());
  st.memRowWords.resize(ir.mems.size());
  for (size_t m = 0; m < ir.mems.size(); m++) {
    uint32_t rw = static_cast<uint32_t>(BitVec::numWords(ir.mems[m].width));
    st.memRowWords[m] = rw;
    st.memWords[m].assign(ir.mems[m].depth * rw, 0);
  }
  return st;
}

void SimState::clear() {
  std::fill(vals.begin(), vals.end(), 0);
  for (auto& m : memWords) std::fill(m.begin(), m.end(), 0);
}

BitVec loadBV(const SimState& st, const Layout& lay, const SimIR& ir, int32_t sig) {
  BitVec v(ir.signals[sig].width);
  uint32_t off = lay.offset[sig];
  for (size_t i = 0; i < v.wordCount(); i++) v.data()[i] = st.vals[off + i];
  return v;
}

void storeBV(SimState& st, const Layout& lay, const SimIR& ir, int32_t sig, const BitVec& v,
             bool signedExtend) {
  BitVec adj = bvops::extend(v, signedExtend, ir.signals[sig].width);
  uint32_t off = lay.offset[sig];
  for (size_t i = 0; i < adj.wordCount(); i++) st.vals[off + i] = adj.word(i);
}

// 64-byte aligned: see evalFastScalar in op_eval.h.
[[gnu::aligned(64)]] void evalExecOpSlow(const SimIR& ir, const Layout& lay, SimState& st,
                                         const ExecOp& op) {
  using namespace bvops;
  auto A = [&] { return loadBV(st, lay, ir, op.args[0]); };
  auto B = [&] { return loadBV(st, lay, ir, op.args[1]); };
  auto C = [&] { return loadBV(st, lay, ir, op.args[2]); };
  const bool s = op.signedOp;
  BitVec r;
  bool signedResult = ir.signals[op.dest].isSigned;
  switch (op.code) {
    case OpCode::Add: r = add(A(), B(), s); break;
    case OpCode::Sub: r = sub(A(), B(), s); break;
    case OpCode::Mul: r = mul(A(), B(), s); break;
    case OpCode::Div: r = div(A(), B(), s); break;
    case OpCode::Rem: r = rem(A(), B(), s); break;
    case OpCode::Lt: r = lt(A(), B(), s); break;
    case OpCode::Leq: r = leq(A(), B(), s); break;
    case OpCode::Gt: r = gt(A(), B(), s); break;
    case OpCode::Geq: r = geq(A(), B(), s); break;
    case OpCode::Eq: r = eq(A(), B(), s); break;
    case OpCode::Neq: r = neq(A(), B(), s); break;
    case OpCode::Dshl: r = dshl(A(), B(), op.bW); break;
    case OpCode::Dshr: r = dshr(A(), s, B()); break;
    case OpCode::And: r = band(A(), B(), s); break;
    case OpCode::Or: r = bor(A(), B(), s); break;
    case OpCode::Xor: r = bxor(A(), B(), s); break;
    case OpCode::Cat: r = cat(A(), B()); break;
    case OpCode::Not: r = bnot(A()); break;
    case OpCode::Andr: r = andr(A()); break;
    case OpCode::Orr: r = orr(A()); break;
    case OpCode::Xorr: r = xorr(A()); break;
    case OpCode::Cvt: r = cvt(A(), s); break;
    case OpCode::Neg: r = neg(A(), s); break;
    case OpCode::Pad: r = pad(A(), s, static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Shl: r = shl(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Shr: r = shr(A(), s, static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Bits:
      r = bits(A(), static_cast<uint32_t>(op.imm0), static_cast<uint32_t>(op.imm1));
      break;
    case OpCode::Head: r = head(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Tail: r = tail(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Copy:
      storeBV(st, lay, ir, op.dest, A(), s);
      return;
    case OpCode::Mux: r = mux(A(), B(), C(), s); break;
    case OpCode::Const: r = ir.constPool[static_cast<size_t>(op.imm0)]; break;
    case OpCode::MemRead: {
      size_t memId = static_cast<size_t>(op.imm0);
      const MemInfo& m = ir.mems[memId];
      uint64_t addr = A().toU64();
      bool en = !B().isZero();
      BitVec row(m.width);
      if (en && addr < m.depth && A().bitLength() <= 64) {
        uint32_t rw = st.memRowWords[memId];
        for (uint32_t i = 0; i < rw; i++) row.data()[i] = st.memWords[memId][addr * rw + i];
        row.maskToWidth();
      }
      r = row;
      break;
    }
  }
  storeBV(st, lay, ir, op.dest, r, signedResult);
}

}  // namespace essent::sim
