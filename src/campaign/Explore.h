//===- campaign/Explore.h - Swept machine grids ---------------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine grids around Table 1's 4-way point: issue widths, window/ROB
/// sizes, INT/FP functional-unit mixes, predictor and D-cache sizes,
/// generalizing bench/ablation_machine's axes. fpint-fuzz draws the
/// timing cross-check machine of each module from the "full" grid, and
/// perfbench's `sweep` workload replays its traces on every point of
/// the "small" grid. Both grids are pinned by tests/CampaignTest.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CAMPAIGN_EXPLORE_H
#define FPINT_CAMPAIGN_EXPLORE_H

#include "timing/MachineConfig.h"

#include <string>
#include <vector>

namespace fpint {
namespace campaign {

/// One swept machine point with its stable display label (the label
/// encodes the axis values, e.g. "w4_fu2+2_win16_gs_d32k").
struct MachinePoint {
  std::string Label;
  timing::MachineConfig M;
};

/// The swept machine grid, in deterministic order with unique labels:
///   small  39 points: widths x FU mixes x predictors, 32 KiB D-cache
///   full   117 points: "small" crossed with 16/32/64 KiB D-caches
/// Unknown names return an empty grid.
std::vector<MachinePoint> exploreGrid(const std::string &Grid);

} // namespace campaign
} // namespace fpint

#endif // FPINT_CAMPAIGN_EXPLORE_H
