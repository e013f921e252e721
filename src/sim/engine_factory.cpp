// Kind names and parsing. makeEngine itself is defined in
// core/engine_factory.cpp (the core library provides the CCSS backends).
#include "sim/engine_factory.h"

namespace essent::sim {

const char* engineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::FullCycle: return "full";
    case EngineKind::EventDriven: return "event";
    case EngineKind::Ccss: return "ccss";
    case EngineKind::Lane: return "lane";
    case EngineKind::Codegen: return "codegen";
  }
  return "?";
}

const char* engineKindLongName(EngineKind k) {
  switch (k) {
    case EngineKind::FullCycle: return "full-cycle";
    case EngineKind::EventDriven: return "event-driven";
    case EngineKind::Ccss: return "essent-ccss";
    case EngineKind::Lane: return "essent-lane";
    case EngineKind::Codegen: return "codegen";
  }
  return "?";
}

bool parseEngineKind(const std::string& token, EngineKind& out) {
  for (EngineKind k : allEngineKinds()) {
    if (token == engineKindName(k) || token == engineKindLongName(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::vector<EngineKind> allEngineKinds() {
  return {EngineKind::FullCycle, EngineKind::EventDriven, EngineKind::Ccss, EngineKind::Lane,
          EngineKind::Codegen};
}

std::vector<EngineKind> inProcessEngineKinds() {
  return {EngineKind::FullCycle, EngineKind::EventDriven, EngineKind::Ccss, EngineKind::Lane};
}

std::string engineKindList() {
  std::string s;
  for (EngineKind k : allEngineKinds()) {
    if (!s.empty()) s += '|';
    s += engineKindName(k);
  }
  return s;
}

}  // namespace essent::sim
