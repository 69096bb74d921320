//===- tests/AnalysisCorpus.h - Modules for analysis exactness tests ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modules the pass pipeline's per-function analyses see, for the
/// tests that compare an analysis with a reference implementation kept
/// in the test: every figure program and the first seed-1 modules of
/// every generator preset, each as given, after the advanced partition
/// (virtual registers of both classes) and after register allocation.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TESTS_ANALYSISCORPUS_H
#define FPINT_TESTS_ANALYSISCORPUS_H

#include "core/Pipeline.h"
#include "testgen/Generator.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fpint {
namespace fixtures {

using CorpusModule = std::pair<std::string, std::unique_ptr<sir::Module>>;

/// Appends \p M and its two compiled forms to \p Out, each renumbered.
inline void addCompiledForms(const std::string &Name, const sir::Module &M,
                             const std::vector<int32_t> &TrainArgs,
                             const std::vector<int32_t> &RefArgs,
                             std::vector<CorpusModule> &Out) {
  auto Add = [&](std::string Label, std::unique_ptr<sir::Module> Form) {
    Form->renumber();
    Out.emplace_back(std::move(Label), std::move(Form));
  };
  Add(Name, M.clone());
  for (const char *Passes : {"opt,profile,partition", ""}) {
    core::PipelineConfig Config;
    Config.Scheme = partition::Scheme::Advanced;
    Config.Passes = Passes;
    Config.TrainArgs = TrainArgs;
    Config.RefArgs = RefArgs;
    core::PipelineRun Run = core::compileAndMeasure(M, Config);
    Add(Name + " [" + Run.Config.Passes + "]", std::move(Run.Compiled));
  }
}

/// Calls \p Fn(Name, Module, TrainArgs, RefArgs) for every figure
/// program and the first \p PerPreset seed-1 modules of every
/// generator preset.
template <typename FnT> void forEachCorpusSource(unsigned PerPreset, FnT Fn) {
  for (const std::string &Name : workloads::allWorkloadNames()) {
    workloads::Workload W = workloads::workloadByName(Name);
    Fn(Name, *W.M, W.TrainArgs, W.RefArgs);
  }
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Gen = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < PerPreset; ++It) {
      const uint64_t Seed = testgen::moduleSeed(1, It);
      auto M = testgen::generateModule(Gen, Seed);
      Fn(Preset + " seed " + std::to_string(Seed), *M,
         std::vector<int32_t>(), std::vector<int32_t>());
    }
  }
}

/// Every figure program and the first \p PerPreset seed-1 modules of
/// every generator preset, in the three forms of addCompiledForms.
inline std::vector<CorpusModule> analysisCorpus(unsigned PerPreset = 30) {
  std::vector<CorpusModule> Out;
  forEachCorpusSource(PerPreset, [&](const std::string &Name,
                                     const sir::Module &M,
                                     const std::vector<int32_t> &Train,
                                     const std::vector<int32_t> &Ref) {
    addCompiledForms(Name, M, Train, Ref, Out);
  });
  return Out;
}

} // namespace fixtures
} // namespace fpint

#endif // FPINT_TESTS_ANALYSISCORPUS_H
