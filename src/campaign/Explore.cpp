//===- campaign/Explore.cpp - Swept machine grids -------------------------===//

#include "campaign/Explore.h"

#include <algorithm>

using namespace fpint;
using namespace fpint::campaign;

namespace {

/// One functional-unit mix axis point.
struct FuMix {
  unsigned IntUnits, FpUnits;
};

/// Scales a Table 1 machine to the swept axis values. The derived
/// fields follow the fourWay() proportions: window 4x the width,
/// in-flight 2x the window, the 32-entry architectural file plus one
/// rename register per window slot per side (win16 -> 48, exactly the
/// 4-way machine), one load/store port per two INT units.
timing::MachineConfig makeMachine(unsigned Width, const FuMix &Fu,
                                  unsigned Window,
                                  timing::PredictorKind Pred,
                                  unsigned DCacheKb) {
  timing::MachineConfig M = timing::MachineConfig::fourWay();
  M.Name = "explore";
  M.FetchWidth = M.DecodeWidth = M.RetireWidth = Width;
  M.IntWindow = M.FpWindow = Window;
  M.MaxInFlight = 2 * Window;
  M.IntUnits = Fu.IntUnits;
  M.FpUnits = Fu.FpUnits;
  M.LoadStorePorts = std::max(1u, Fu.IntUnits / 2);
  M.IntPhysRegs = M.FpPhysRegs = 32 + Window;
  M.DCache.SizeBytes = DCacheKb * 1024;
  M.Predictor = Pred;
  return M;
}

const char *predTag(timing::PredictorKind K) {
  switch (K) {
  case timing::PredictorKind::Gshare:
    return "gs";
  case timing::PredictorKind::McFarling:
    return "mcf";
  case timing::PredictorKind::StaticNotTaken:
    return "st";
  }
  return "?";
}

std::string pointLabel(unsigned Width, const FuMix &Fu, unsigned Window,
                       timing::PredictorKind Pred, unsigned DCacheKb) {
  return "w" + std::to_string(Width) + "_fu" + std::to_string(Fu.IntUnits) +
         "+" + std::to_string(Fu.FpUnits) + "_win" + std::to_string(Window) +
         "_" + predTag(Pred) + "_d" + std::to_string(DCacheKb) + "k";
}

/// Cross product of the per-grid axis lists, filtered to feasible
/// machines (no more INT units than issue width, no more FP than INT
/// units -- the paper's machines are INT-led).
std::vector<MachinePoint>
crossGrid(const std::vector<unsigned> &Widths, const std::vector<FuMix> &Fus,
          const std::vector<timing::PredictorKind> &Preds,
          const std::vector<unsigned> &DCacheKbs) {
  std::vector<MachinePoint> Grid;
  for (unsigned W : Widths)
    for (const FuMix &Fu : Fus) {
      if (Fu.IntUnits > W || Fu.FpUnits > Fu.IntUnits)
        continue;
      unsigned Window = 4 * W;
      for (timing::PredictorKind P : Preds)
        for (unsigned Kb : DCacheKbs)
          Grid.push_back({pointLabel(W, Fu, Window, P, Kb),
                          makeMachine(W, Fu, Window, P, Kb)});
    }
  return Grid;
}

} // namespace

std::vector<MachinePoint> campaign::exploreGrid(const std::string &Grid) {
  using PK = timing::PredictorKind;
  if (Grid == "small")
    return crossGrid({2, 4, 8}, {{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}},
                     {PK::Gshare, PK::McFarling, PK::StaticNotTaken}, {32});
  if (Grid == "full")
    return crossGrid({2, 4, 8}, {{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}},
                     {PK::Gshare, PK::McFarling, PK::StaticNotTaken},
                     {16, 32, 64});
  return {};
}
