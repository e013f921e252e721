// essent-fuzz — differential FIRRTL fuzzer across all five execution paths
// (full-cycle reference, event-driven, CCSS, the SIMD lane engine, and the
// compiled codegen simulator). Generates seeded random circuits + stimulus,
// compares every output signal every cycle plus final register/memory
// state, shrinks failures with delta debugging, and saves reproducers.
//
// Usage:
//   essent_fuzz [--seed S] [--budget N] [--cycles N]
//               [--engines full,event,ccss,lane,codegen]
//               [--codegen-every N] [--wide-every N]
//               [--corpus DIR] [--no-shrink] [--timeout-ms N] [-v]
//   essent_fuzz --mode mutate [--seed S] [--budget N] [--max-mutations N]
//   essent_fuzz --replay CASESEED [other options]
//   essent_fuzz --replay-file CASE.fir [--stim CASE.stim]
//
// --mode mutate is the crash fuzzer: byte/token mutations of generated
// circuits pushed through the diag-collecting front end under resource
// ceilings; the only acceptable outcomes are clean builds or structured
// diagnostics — any escaped exception fails the run (and a signal or
// sanitizer abort fails it harder).
//
// Deterministic: the same --seed always generates the same circuits and
// verdicts; --replay CASESEED reproduces a single case from any campaign.
// Exit status: 0 when every case agrees, 1 on any divergence.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "sim/compile.h"
#include "support/strutil.h"

using namespace essent;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: essent_fuzz [--seed S] [--budget N] [--cycles N]\n"
               "                   [--engines full,event,ccss,lane,codegen]\n"
               "                   [--codegen-every N] [--wide-every N]\n"
               "                   [--corpus DIR] [--no-shrink] [--timeout-ms N] [-v]\n"
               "                   [--mode differential|mutate] [--max-mutations N]\n"
               "                   [--replay CASESEED | --replay-file F.fir [--stim F.stim]]\n");
  std::exit(2);
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "essent_fuzz: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  std::optional<uint64_t> replaySeed;
  std::string replayFile, stimFile;
  std::string mode = "differential";
  uint32_t maxMutations = 8;

  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--seed") cfg.seed = std::strtoull(next(), nullptr, 0);
    else if (a == "--budget") cfg.budget = std::strtoull(next(), nullptr, 0);
    else if (a == "--cycles") cfg.cycles = std::strtoull(next(), nullptr, 0);
    else if (a == "--codegen-every") cfg.codegenEvery = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (a == "--wide-every") cfg.wideEvery = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (a == "--corpus") cfg.corpusDir = next();
    else if (a == "--no-shrink") cfg.shrinkFailures = false;
    else if (a == "--shrink-attempts") cfg.shrinkAttempts = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (a == "-v" || a == "--verbose") cfg.verbose = true;
    else if (a == "--mode") mode = next();
    else if (a == "--max-mutations") maxMutations = static_cast<uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (a == "--timeout-ms") cfg.subprocessTimeoutMs = std::strtoll(next(), nullptr, 0);
    else if (a == "--replay") replaySeed = std::strtoull(next(), nullptr, 0);
    else if (a == "--replay-file") replayFile = next();
    else if (a == "--stim") stimFile = next();
    else if (a == "--engines") {
      cfg.engines.clear();
      for (const std::string& tok : splitString(next(), ',')) {
        fuzz::EngineKind k;
        const std::vector<fuzz::EngineKind> kinds = fuzz::allEngineKinds();
        if (!fuzz::parseEngineKind(trimString(tok), k) ||
            std::find(kinds.begin(), kinds.end(), k) == kinds.end()) {
          std::fprintf(stderr, "essent_fuzz: unknown engine '%s'\n", tok.c_str());
          usage();
        }
        cfg.engines.push_back(k);
      }
    } else {
      usage();
    }
  }

  if (mode == "mutate") {
    fuzz::MutateConfig mc;
    mc.seed = cfg.seed;
    mc.budget = cfg.budget;
    mc.maxMutations = maxMutations;
    mc.verbose = cfg.verbose;
    fuzz::MutateSummary sum = fuzz::runMutateCampaign(mc, stdout);
    return sum.failed() ? 1 : 0;
  }
  if (mode != "differential") {
    std::fprintf(stderr, "essent_fuzz: unknown mode '%s'\n", mode.c_str());
    usage();
  }

  if (!replayFile.empty()) {
    // Re-check a saved reproducer. Without --stim, drive a deterministic
    // default stimulus derived from the campaign seed.
    std::string fir = readFileOrDie(replayFile);
    fuzz::CaseResult cr;
    if (!stimFile.empty()) {
      fuzz::Stimulus stim = fuzz::Stimulus::parse(readFileOrDie(stimFile));
      cr = fuzz::replayCase(fir, stim, cfg, stdout);
    } else {
      sim::SimIR ir;
      try {
        ir = sim::buildFromFirrtl(fir);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "essent_fuzz: %s\n", e.what());
        return 1;
      }
      fuzz::Stimulus stim = fuzz::randomStimulus(ir, cfg.seed, cfg.cycles, 0.5);
      cr = fuzz::replayCase(fir, stim, cfg, stdout);
    }
    return cr.failed() ? 1 : 0;
  }

  if (replaySeed) {
    cfg.verbose = true;
    // Replay ignores the codegen sampling: if codegen is in the engine set
    // and the case is not wide, it runs (maximum scrutiny on a known case).
    fuzz::FuzzConfig rc = cfg;
    rc.codegenEvery = 1;
    fuzz::CaseResult cr = fuzz::runFuzzCase(*replaySeed, rc, stdout);
    if (!cr.failed()) {
      std::printf("replay seed=%llu: engines agree%s\n",
                  static_cast<unsigned long long>(*replaySeed),
                  cr.codegenChecked ? " (codegen included)" : "");
      return 0;
    }
    if (!cr.buildError.empty())
      std::printf("replay seed=%llu: BUILD ERROR: %s\n",
                  static_cast<unsigned long long>(*replaySeed), cr.buildError.c_str());
    if (cr.divergence)
      std::printf("replay seed=%llu: DIVERGENCE\n%s\n",
                  static_cast<unsigned long long>(*replaySeed),
                  cr.divergence->describe().c_str());
    std::printf("--- reproducing FIRRTL ---\n%s\n",
                cr.shrunkFir.empty() ? cr.fir.c_str() : cr.shrunkFir.c_str());
    return 1;
  }

  fuzz::FuzzSummary sum = fuzz::runFuzzCampaign(cfg, stdout);
  if (sum.failed()) {
    std::printf("FUZZ FAILED: %llu/%llu cases diverged; replay with --replay <seed>\n",
                static_cast<unsigned long long>(sum.failures),
                static_cast<unsigned long long>(sum.cases));
    return 1;
  }
  std::printf("fuzz clean: %llu cases, digest %016llx\n",
              static_cast<unsigned long long>(sum.cases),
              static_cast<unsigned long long>(sum.digest));
  return 0;
}
