// Lowered simulation IR.
//
// A SimIR is a flat dataflow program over width-tagged signals: every signal
// is produced by at most one Op, state elements (registers, memories) appear
// as sources (their current value) plus sinks (their update inputs), and the
// op list is kept in a valid topological order. All three engines in this
// repository — full-cycle, event-driven, and the CCSS activity engine —
// execute the same SimIR, so measured performance differences are
// attributable to scheduling strategy alone (mirroring the paper's
// Baseline-vs-ESSENT methodology).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/bitvec.h"

namespace essent::sim {

enum class OpCode : uint8_t {
  // Binary (args[0], args[1]).
  Add, Sub, Mul, Div, Rem,
  Lt, Leq, Gt, Geq, Eq, Neq,
  Dshl, Dshr,
  And, Or, Xor,
  Cat,
  // Unary (args[0]); Pad/Shl/Shr/Head/Tail take imm0, Bits takes imm0=hi imm1=lo.
  Not, Andr, Orr, Xorr, Cvt, Neg,
  Pad, Shl, Shr, Bits, Head, Tail,
  // Reinterpretation / copy-with-extend.
  Copy,
  // Ternary select (args: sel, tval, fval).
  Mux,
  // dest = constPool[imm0].
  Const,
  // dest = mem[imm0].read(args[0]=addr, args[1]=en); reads return 0 when
  // disabled or out of range (fixed semantics shared by every engine).
  MemRead,
};

const char* opCodeName(OpCode code);

enum class SigKind : uint8_t {
  Input,     // external input port (source)
  Output,    // external output port (sink, defined by a Copy op)
  Register,  // state element output (source)
  Node,      // named combinational value
  Temp,      // compiler temporary
  Dead,      // removed by DCE; retains its arena slot but is never written
};

struct Signal {
  std::string name;  // empty for temporaries
  uint32_t width = 0;
  bool isSigned = false;
  SigKind kind = SigKind::Temp;
  int32_t defOp = -1;  // index into SimIR::ops; -1 for Input/Register
};

struct Op {
  OpCode code = OpCode::Copy;
  int32_t dest = -1;
  int32_t args[3] = {-1, -1, -1};
  int64_t imm0 = 0;
  int64_t imm1 = 0;
  // Signedness of the *operands* (selects signed vs unsigned semantics).
  bool signedOp = false;

  int numArgs() const;
};

struct RegInfo {
  int32_t sig = -1;   // register output signal (SigKind::Register)
  int32_t next = -1;  // combinational signal holding the next value
                      // (same width as sig; reset already folded in as a mux)
};

struct MemReader {
  int32_t addr = -1;
  int32_t en = -1;
  int32_t data = -1;  // defined by the MemRead op (latency 0) or a synthesized
                      // register (latency 1)
};

struct MemWriter {
  int32_t addr = -1;
  int32_t en = -1;
  int32_t data = -1;
  int32_t mask = -1;
};

struct MemInfo {
  std::string name;
  uint32_t width = 0;
  uint64_t depth = 0;
  std::vector<MemReader> readers;
  std::vector<MemWriter> writers;
};

struct PrintInfo {
  int32_t en = -1;
  std::string format;            // FIRRTL printf format (%d, %x, %b, %c)
  std::vector<int32_t> args;
};

struct StopInfo {
  int32_t en = -1;
  int exitCode = 0;
};

// FIRRTL assert: fails (stopping simulation with exit code 65 and emitting
// "assertion failed: <message>") when enabled and the predicate is false.
// Cold-path treatment in generated code per paper SIII-B2.
struct AssertInfo {
  int32_t pred = -1;
  int32_t en = -1;
  std::string message;
};

struct SimIR {
  std::string name;
  std::vector<Signal> signals;
  std::vector<Op> ops;  // in topological (executable) order
  std::vector<BitVec> constPool;

  // Combinational-loop supernodes (paper §II): when the builder is allowed
  // to accept combinational SCCs, each multi-op SCC becomes a supernode
  // whose member ops are CONTIGUOUS in `ops` and must be evaluated
  // repeatedly until convergence. opSuper[i] is the supernode index of op i
  // or -1; supers[k] lists member op indices in execution order. Both are
  // empty for acyclic designs.
  std::vector<int32_t> opSuper;
  std::vector<std::vector<int32_t>> supers;

  bool hasCombLoops() const { return !supers.empty(); }
  int32_t superOf(size_t opIdx) const { return opSuper.empty() ? -1 : opSuper[opIdx]; }
  std::vector<RegInfo> regs;
  std::vector<MemInfo> mems;
  std::vector<PrintInfo> prints;
  std::vector<StopInfo> stops;
  std::vector<AssertInfo> asserts;
  std::vector<int32_t> inputs;   // signal ids of input ports (clock excluded)
  std::vector<int32_t> outputs;  // signal ids of output ports

  // Signal id by name; -1 when unknown.
  int32_t findSignal(const std::string& name) const;

  // Registers signals[id] in the name index (no-op for unnamed signals; an
  // existing entry with the same name is replaced). The index is an
  // open-addressing table of signal ids that hashes and compares against
  // the signals' own name storage — at million-signal scale this avoids
  // duplicating every name string in a node-based map (tens of MB and one
  // heap allocation per named signal).
  void indexSignalName(int32_t id);

  // Count of ops excluding Dead-dest ops (all ops in `ops` are live; this is
  // simply ops.size(), kept as a method for reporting symmetry).
  size_t liveOpCount() const { return ops.size(); }

  // Verifies topological order, arg validity, and width bookkeeping;
  // throws std::logic_error on violation. Used by tests and after passes.
  void validate() const;

 private:
  std::vector<int32_t> nameSlots_;  // open-addressing; -1 = empty
  size_t namedCount_ = 0;
};

// Gives every register whose next value is another register's current
// value (FIRRTL `r3 <= r0` with no reset) a combinational Copy of that value
// as its next, one Copy per aliased source register. Engines commit
// registers one at a time, so without the copy r3 would read r0 after r0's
// own commit — its new value — whenever r0 commits first. With it, every
// register's next is computed before any commit, and commit order no longer
// matters. Returns the number of copies added; an IR without such aliases
// is left untouched. CompiledDesign::compile applies it, so every engine
// and the code generator see the same fixed IR.
size_t isolateRegisterAliases(SimIR& ir);

// ---------------------------------------------------------------------------
// Execution layout: arena offsets + precompiled op stream.

// Word layout of the value arena: every signal occupies ceil(width/64)
// words (minimum 1) and is always stored canonically masked.
struct Layout {
  std::vector<uint32_t> offset;
  std::vector<uint32_t> nwords;
  uint32_t totalWords = 0;

  static Layout build(const SimIR& ir);
};

// Per-op execution record with resolved widths/offsets; `fast` marks ops
// whose operands and result all fit in a single 64-bit word. One record is
// one 64-byte cache line: imm1 (only Bits' low bit index, which is below
// the operand width) sits in what would otherwise be padding.
struct ExecOp {
  OpCode code;
  bool signedOp;
  bool fast;
  int32_t dest;
  int32_t args[3];
  uint32_t destOff, destW;
  uint32_t aOff, aW;
  uint32_t bOff, bW;
  uint32_t cOff, cW;
  int32_t imm1;
  int64_t imm0;
};
static_assert(sizeof(ExecOp) == 64, "ExecOp is sized to one cache line");

std::vector<ExecOp> compileExec(const SimIR& ir, const Layout& layout);

// Mutable simulation state: the flat value arena plus memory contents.
struct SimState {
  std::vector<uint64_t> vals;
  std::vector<std::vector<uint64_t>> memWords;  // per mem: depth * wordsPerRow
  std::vector<uint32_t> memRowWords;

  static SimState build(const SimIR& ir, const Layout& layout);

  void clear();
};

// ---------------------------------------------------------------------------
// IR-level optimizations (the "classic compiler optimizations" of §III-B).

struct OptStats {
  size_t constsFolded = 0;
  size_t csesMerged = 0;
  size_t opsRemoved = 0;
};

// Folds ops whose operands are all constants and muxes with constant
// selectors; appends to the const pool.
OptStats constantPropagate(SimIR& ir);

// Structural common-subexpression elimination; duplicate temporaries are
// redirected, duplicate named signals become Copies of the representative.
OptStats eliminateCommonSubexprs(SimIR& ir);

// Removes ops (and empties signals) that cannot influence an output, a
// register that is itself live, a memory with live readers, or a
// print/stop side effect.
OptStats deadCodeEliminate(SimIR& ir);

}  // namespace essent::sim
