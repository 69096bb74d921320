//===- bench/ext_fp_args.cpp - Section 6.6 FP-argument-passing ablation ---===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's final Section 6.6 suggestion, evaluated: interprocedural
/// FP-register argument passing on top of the advanced scheme. For each
/// integer benchmark we compare copy traffic and 4-way speedup with the
/// extension off and on, plus a distilled call-intensive kernel where
/// the conversion fires on every hot call.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sir/Parser.h"
#include "support/Table.h"

using namespace fpint;

namespace {

// A distilled hot-call kernel: an offloaded hash chain feeds a callee
// that consumes the argument in FPa too.
const char *HotCallKernel = R"(
global data 64
global acc 1

func fold(%v) {
entry:
  sll %a, %v, 1
  xor %b, %a, %v
  andi %c, %b, 4095
  sll %d, %c, 2
  sub %e, %d, %c
  xor %f, %e, %b
  lw %t, acc
  add %t2, %t, %f
  sw %t2, acc
  ret
}

func main(%n) {
entry:
  li %i, 0
loop:
  andi %ix, %i, 63
  sll %off, %ix, 2
  la %p, data
  add %ea, %p, %off
  lw %x, 0(%ea)
  sll %h1, %x, 3
  sub %h2, %h1, %x
  xor %h3, %h2, %i0
  addi %h4, %h3, 11
  sll %h5, %h4, 1
  xor %h6, %h5, %h4
  call fold(%h6)
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)";

} // namespace

namespace {

struct Item {
  std::string Name;
  const sir::Module *M = nullptr;
  std::vector<int32_t> Train, Ref;
};

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("ext_fp_args", argc, argv);
  std::printf("Section 6.6 extension: passing integer arguments in FP "
              "registers (advanced, 4-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  sir::ParseResult PR = sir::parseModule(HotCallKernel);
  if (!PR.ok())
    std::abort();
  std::vector<workloads::Workload> Ws = workloads::intWorkloads();

  std::vector<Item> Items;
  Items.push_back({"hot-call kernel", PR.M.get(), {200}, {4000}});
  for (const workloads::Workload &W : Ws)
    Items.push_back({W.Name, W.M.get(), W.TrainArgs, W.RefArgs});

  Table T({"benchmark", "slots converted", "copies off->on",
           "copy-backs off->on", "dyn instrs off->on", "speedup off",
           "speedup on"});
  bench::runMatrix(Items, T, [&](const Item &It) {
    core::PipelineConfig Base;
    Base.Scheme = partition::Scheme::None;
    Base.TrainArgs = It.Train;
    Base.RefArgs = It.Ref;
    core::PipelineRun Conv = bench::compileModule(*It.M, It.Name, Base);
    uint64_t ConvCycles = bench::simulateRun(Conv, Conventional).Cycles;

    core::PipelineConfig Off = Base;
    Off.Scheme = partition::Scheme::Advanced;
    core::PipelineRun OffRun = bench::compileModule(*It.M, It.Name, Off);
    core::PipelineConfig On = Off;
    On.Passes = "opt,profile,partition,fp-arg-passing,regalloc";
    core::PipelineRun OnRun = bench::compileModule(*It.M, It.Name, On);

    timing::SimStats SOff = bench::simulateRun(OffRun, Machine);
    timing::SimStats SOn = bench::simulateRun(OnRun, Machine);
    return bench::MatrixRows{
        {It.Name, Table::num(OnRun.FpArgs.ArgsConverted),
         Table::num(OffRun.Stats.Copies) + " -> " +
             Table::num(OnRun.Stats.Copies),
         Table::num(OffRun.Stats.CopyBacks) + " -> " +
             Table::num(OnRun.Stats.CopyBacks),
         Table::num(OffRun.Stats.Total) + " -> " +
             Table::num(OnRun.Stats.Total),
         Table::pct(static_cast<double>(ConvCycles) / SOff.Cycles - 1.0),
         Table::pct(static_cast<double>(ConvCycles) / SOn.Cycles - 1.0)}};
  });
  T.print();
  std::printf("\nThe paper proposes this as future work; where argument "
              "values are computed and\nconsumed in FPa (the kernel), "
              "conversion deletes a cp_to_int + cp_to_fp round\ntrip per "
              "call. On this simulator the removed copies were latency-"
              "hidden, so the\nwin is instruction count/energy rather "
              "than cycles -- consistent with the paper\ncalling the "
              "copy overheads small to begin with.\n");
  return bench::harnessExit();
}
