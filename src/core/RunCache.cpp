//===- core/RunCache.cpp - Memoized compile + simulate results ------------===//

#include "core/RunCache.h"

#include "core/PassManager.h"

using namespace fpint;
using namespace fpint::core;

std::string RunCache::runKey(const std::string &ModuleName,
                             const PipelineConfig &Config) {
  std::string Key = ModuleName;
  appendConfigFields(Key, Config, AllConfigFields);
  Key += '|';
  Key += effectivePipelineText(Config);
  return Key;
}

RunCache::RunPtr RunCache::compile(const sir::Module &M,
                                   const std::string &ModuleName,
                                   const PipelineConfig &Config) {
  const std::string Key = runKey(ModuleName, Config);
  std::shared_future<RunPtr> Ready;
  std::promise<RunPtr> Fill;
  bool Compute = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Compiles.find(Key);
    if (It != Compiles.end()) {
      ++Counts.CompileHits;
      Ready = It->second.Ready;
    } else {
      ++Counts.CompileMisses;
      Ready = Fill.get_future().share();
      Compiles.emplace(Key, Entry<RunPtr>{Ready});
      Compute = true;
    }
  }
  if (Compute) {
    try {
      PipelineRun Run = compileAndMeasure(M, Config);
      Run.Name = ModuleName;
      Fill.set_value(std::make_shared<const PipelineRun>(std::move(Run)));
    } catch (...) {
      Fill.set_exception(std::current_exception());
    }
  }
  // Waiting here is deadlock-free: a present-but-unready entry means
  // the computing thread is already running (it inserted the entry
  // before computing), never queued behind this one.
  return Ready.get();
}

timing::SimStats RunCache::simulate(const RunPtr &Run,
                                    const timing::MachineConfig &Machine) {
  const std::pair<const PipelineRun *, std::string> Key(
      Run.get(), Machine.canonicalKey());
  std::shared_future<timing::SimStats> Ready;
  std::promise<timing::SimStats> Fill;
  bool Compute = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Sims.find(Key);
    if (It != Sims.end()) {
      ++Counts.SimHits;
      Ready = It->second.Ready;
    } else {
      ++Counts.SimMisses;
      Ready = Fill.get_future().share();
      Sims.emplace(Key, Entry<timing::SimStats>{Ready});
      // Pin the run so the pointer half of the key can never be
      // reused by a different allocation while the entry exists.
      Retained.push_back(Run);
      Compute = true;
    }
  }
  if (Compute) {
    try {
      Fill.set_value(core::simulate(*Run, Machine));
    } catch (...) {
      Fill.set_exception(std::current_exception());
    }
  }
  return Ready.get();
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}

void RunCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Compiles.clear();
  Sims.clear();
  Retained.clear();
  Counts = Stats();
}

RunCache &RunCache::global() {
  static RunCache Cache;
  return Cache;
}
