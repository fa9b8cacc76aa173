// Tests for the discrete-event simulator: event-queue semantics, machine
// presets, the cost model's reproduction of the paper's analytic claims
// (eqs. 6-11: combined-task time, throughput invariance, I/O bottleneck vs
// stripe factor, async-vs-sync overlap), and SimRunner's steady-state
// measurements matching the closed-form equations (1)-(4).
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/sim_runner.hpp"

namespace pstap::sim {
namespace {

using pipeline::IoStrategy;
using pipeline::PipelineSpec;
using pipeline::TaskKind;
using pipeline::proportional_assignment;

stap::RadarParams paper_params() { return stap::RadarParams{}; }

// ------------------------------------------------------------ event queue --

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(1.0, [&, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) q.schedule_in(1.0, chain);
  };
  q.schedule_in(0.0, chain);
  q.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(4.0, [] {}), PreconditionError);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), PreconditionError);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

// -------------------------------------------------------------- machines --

TEST(Machine, ParagonPresets) {
  const auto m16 = paragon_like(16);
  const auto m64 = paragon_like(64);
  EXPECT_TRUE(m16.async_io);
  EXPECT_EQ(m16.stripe_factor, 16u);
  EXPECT_EQ(m64.stripe_factor, 64u);
  EXPECT_EQ(m16.node_flops, m64.node_flops);
}

TEST(Machine, SpPresetIsFasterButSyncOnly) {
  const auto sp = sp_like();
  const auto pg = paragon_like(16);
  EXPECT_GT(sp.node_flops, 2 * pg.node_flops);
  EXPECT_FALSE(sp.async_io);
  EXPECT_EQ(sp.stripe_factor, 80u);
}

// -------------------------------------------------------------- cost model --

TEST(CostModel, ComputeTimeScalesInverselyWithNodes) {
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  const auto spec1 = proportional_assignment(p, 25, IoStrategy::kEmbedded, false);
  const auto spec2 = proportional_assignment(p, 100, IoStrategy::kEmbedded, false);
  const CostModel small(spec1, machine);
  const CostModel large(spec2, machine);
  // Per-task compute shrinks when its node count grows (W/P term).
  for (std::size_t i = 0; i < spec1.tasks.size(); ++i) {
    if (spec2.tasks[i].nodes > 2 * spec1.tasks[i].nodes) {
      EXPECT_LT(large.cost(i).compute, small.cost(i).compute)
          << task_name(spec1.tasks[i].kind);
    }
  }
}

TEST(CostModel, CombinedTaskBeatsSplitTasks) {
  // Paper eq. 11: T_{5+6} < T_5 + T_6 at equal total nodes.
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  const auto split = PipelineSpec::embedded_io(p, {8, 2, 6, 4, 10, 6, 4});
  const auto merged = PipelineSpec::combined(p, {8, 2, 6, 4, 10, 10});
  const CostModel cm_split(split, machine);
  const CostModel cm_merged(merged, machine);
  const Seconds t5 = cm_split.cost(5).total();
  const Seconds t6 = cm_split.cost(6).total();
  const Seconds t56 = cm_merged.cost(5).total();
  EXPECT_LT(t56, t5 + t6);
}

TEST(CostModel, IoReadTimeImprovesWithStripeFactor) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 100, IoStrategy::kEmbedded, false);
  const CostModel sf16(spec, paragon_like(16));
  const CostModel sf64(spec, paragon_like(64));
  EXPECT_GT(sf16.io_read_time(8), 2.0 * sf64.io_read_time(8));
}

TEST(CostModel, AsyncOverlapHidesIoWhenComputeDominates) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 25, IoStrategy::kEmbedded, false);
  auto machine = paragon_like(64);
  const CostModel async_model(spec, machine);
  machine.async_io = false;
  const CostModel sync_model(spec, machine);
  const std::size_t dop = static_cast<std::size_t>(spec.find(TaskKind::kDoppler));
  // Sync pays io + compute + send; async pays max of the two.
  EXPECT_LT(async_model.cost(dop).occupancy, sync_model.cost(dop).occupancy);
  EXPECT_DOUBLE_EQ(sync_model.cost(dop).receive, sync_model.cost(dop).io);
}

TEST(CostModel, EmbeddedReceivePhaseBalloonsWhenIoBound) {
  // The paper's observation: with a small stripe factor at high node
  // counts, the Doppler task's receive phase grows (I/O residual) while
  // compute/send stay the same.
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 100, IoStrategy::kEmbedded, false);
  const CostModel sf16(spec, paragon_like(16));
  const CostModel sf64(spec, paragon_like(64));
  const std::size_t dop = static_cast<std::size_t>(spec.find(TaskKind::kDoppler));
  EXPECT_GT(sf16.cost(dop).receive, sf64.cost(dop).receive);
  EXPECT_NEAR(sf16.cost(dop).compute, sf64.cost(dop).compute, 1e-12);
}

TEST(CostModel, SeparateIoReadTaskCarriesTheIo) {
  const auto p = paper_params();
  const auto spec =
      proportional_assignment(p, 100, IoStrategy::kSeparateTask, false, 8);
  const CostModel cm(spec, paragon_like(16));
  const auto read = cm.cost(0);
  EXPECT_EQ(read.kind, TaskKind::kParallelRead);
  EXPECT_GT(read.io, 0.0);
  const std::size_t dop = static_cast<std::size_t>(spec.find(TaskKind::kDoppler));
  EXPECT_DOUBLE_EQ(cm.cost(dop).io, 0.0);
  EXPECT_GT(cm.cost(dop).receive, 0.0);  // network receive from the read task
}

TEST(CostModel, AllCostsPositiveAndFinite) {
  const auto p = paper_params();
  for (const auto io : {IoStrategy::kEmbedded, IoStrategy::kSeparateTask}) {
    const auto spec = proportional_assignment(p, 50, io, false,
                                              io == IoStrategy::kSeparateTask ? 4 : 0);
    const CostModel cm(spec, sp_like());
    for (const auto& c : cm.all()) {
      EXPECT_GE(c.receive, 0.0);
      EXPECT_GT(c.compute, 0.0);
      EXPECT_GE(c.send, 0.0);
      EXPECT_GT(c.occupancy, 0.0);
      EXPECT_TRUE(std::isfinite(c.total()));
    }
  }
}

// -------------------------------------------------------------- sim runner --

TEST(SimRunnerTest, ThroughputMatchesBottleneckEquation) {
  // Paper eq. 1: throughput = 1 / max_i T_i (occupancy in our model).
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  SimRunner runner(spec, paragon_like(64));
  const SimResult result = runner.run();
  Seconds t_max = 0;
  for (const auto& c : result.costs) t_max = std::max(t_max, c.occupancy);
  EXPECT_NEAR(result.measured_throughput, 1.0 / t_max, 1e-6 / t_max);
}

TEST(SimRunnerTest, LatencyMatchesPaperEquationTwo) {
  // latency = T_doppler + max(T_bf_e, T_bf_h) + T_pc + T_cfar, using stage
  // occupancies in the deterministic steady state.
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  SimRunner runner(spec, paragon_like(64));
  const SimResult result = runner.run();
  auto occ = [&](TaskKind k) {
    for (const auto& c : result.costs) {
      if (c.kind == k) return c.occupancy;
    }
    return Seconds{0};
  };
  const Seconds expect = occ(TaskKind::kDoppler) +
                         std::max(occ(TaskKind::kBeamformEasy),
                                  occ(TaskKind::kBeamformHard)) +
                         occ(TaskKind::kPulseCompression) + occ(TaskKind::kCfar);
  EXPECT_NEAR(result.measured_latency, expect, 1e-9 + 0.05 * expect);
}

TEST(SimRunnerTest, SeparateIoHasSameThroughputWorseLatency) {
  // The paper's Table 1 vs Table 2 comparison.
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  const auto embedded = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  const auto separate =
      proportional_assignment(p, 50, IoStrategy::kSeparateTask, false, 4);
  const SimResult a = SimRunner(embedded, machine).run();
  const SimResult b = SimRunner(separate, machine).run();
  EXPECT_NEAR(b.measured_throughput, a.measured_throughput,
              0.1 * a.measured_throughput);
  EXPECT_GT(b.measured_latency, a.measured_latency);
}

TEST(SimRunnerTest, SmallStripeFactorBottlenecksAtScale) {
  // Paper Table 1: sf=16 throughput stalls at 100 nodes; sf=64 keeps scaling.
  const auto p = paper_params();
  auto run = [&](int total, std::size_t sf) {
    const auto spec = proportional_assignment(p, total, IoStrategy::kEmbedded, false);
    return SimRunner(spec, paragon_like(sf)).run().measured_throughput;
  };
  const double t16_50 = run(50, 16), t16_100 = run(100, 16);
  const double t64_50 = run(50, 64), t64_100 = run(100, 64);
  // sf=64 scales close to 2x; sf=16 clearly does not.
  EXPECT_GT(t64_100 / t64_50, 1.7);
  EXPECT_LT(t16_100 / t16_50, 1.5);
  // And at 100 nodes the large stripe factor wins outright.
  EXPECT_GT(t64_100, 1.2 * t16_100);
}

TEST(SimRunnerTest, LatencyBarelyAffectedByIoBottleneck) {
  // Paper §5.1: the I/O bottleneck hurts throughput, not latency (the
  // Doppler stage's receive residual is hidden by prefetching; only the
  // occupancy grows). Latencies should stay within a modest factor.
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 100, IoStrategy::kEmbedded, false);
  const SimResult sf16 = SimRunner(spec, paragon_like(16)).run();
  const SimResult sf64 = SimRunner(spec, paragon_like(64)).run();
  const double latency_penalty = sf16.measured_latency / sf64.measured_latency;
  const double throughput_penalty =
      sf64.measured_throughput / sf16.measured_throughput;
  EXPECT_GT(throughput_penalty, 1.2);                 // throughput clearly hurt
  EXPECT_LT(latency_penalty, 2.0);                    // latency only mildly
  EXPECT_GT(throughput_penalty, 1.3 * latency_penalty);  // and much less than thr.
}

TEST(SimRunnerTest, SpScalesWorseThanParagonDespiteFasterCpus) {
  // Paper §5.1: PIOFS' missing async reads hurt scaling even though the
  // SP's CPUs are ~4x faster.
  const auto p = paper_params();
  auto scaling = [&](const MachineModel& m) {
    const auto s25 = proportional_assignment(p, 25, IoStrategy::kEmbedded, false);
    const auto s100 = proportional_assignment(p, 100, IoStrategy::kEmbedded, false);
    const double t25 = SimRunner(s25, m).run().measured_throughput;
    const double t100 = SimRunner(s100, m).run().measured_throughput;
    return t100 / t25;
  };
  EXPECT_GT(scaling(paragon_like(64)), 1.2 * scaling(sp_like()));
}

TEST(SimRunnerTest, CombiningTasksImprovesLatencyNotThroughput) {
  // Paper Table 3/4 and §6: merge PC+CFAR at equal total nodes.
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  const auto split = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  // Same totals: give the merged task the sum of the split tasks' nodes.
  std::vector<int> merged_nodes;
  for (std::size_t i = 0; i + 2 < split.tasks.size(); ++i) {
    merged_nodes.push_back(split.tasks[i].nodes);
  }
  merged_nodes.push_back(split.tasks[split.tasks.size() - 2].nodes +
                         split.tasks.back().nodes);
  const auto merged = PipelineSpec::combined(p, merged_nodes);
  ASSERT_EQ(merged.total_nodes(), split.total_nodes());

  const SimResult a = SimRunner(split, machine).run();
  const SimResult b = SimRunner(merged, machine).run();
  EXPECT_LT(b.measured_latency, a.measured_latency);
  EXPECT_GE(b.measured_throughput, 0.99 * a.measured_throughput);
}

TEST(SimRunnerTest, LatencyImprovementShrinksWithNodeCount) {
  // Paper Table 4: the combination gain decreases as nodes increase.
  const auto p = paper_params();
  const auto machine = paragon_like(16);
  auto improvement = [&](int total) {
    const auto split = proportional_assignment(p, total, IoStrategy::kEmbedded, false);
    std::vector<int> merged_nodes;
    for (std::size_t i = 0; i + 2 < split.tasks.size(); ++i)
      merged_nodes.push_back(split.tasks[i].nodes);
    merged_nodes.push_back(split.tasks[split.tasks.size() - 2].nodes +
                           split.tasks.back().nodes);
    const auto merged = PipelineSpec::combined(p, merged_nodes);
    const double lat_split = SimRunner(split, machine).run().measured_latency;
    const double lat_merged = SimRunner(merged, machine).run().measured_latency;
    return (lat_split - lat_merged) / lat_split;
  };
  const double i25 = improvement(25);
  const double i100 = improvement(100);
  EXPECT_GT(i25, 0.0);
  EXPECT_GT(i100, 0.0);
  EXPECT_GT(i25, i100);
}

TEST(SimRunnerTest, CombiningTheBottleneckImprovesBothMetrics) {
  // Paper §6.2: when one of the combined tasks determines the throughput,
  // merging improves throughput AND latency simultaneously. Starve the
  // tail tasks to make pulse compression the bottleneck.
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  const auto balanced = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  std::vector<int> split_nodes, merged_nodes;
  for (std::size_t i = 0; i + 2 < balanced.tasks.size(); ++i) {
    split_nodes.push_back(balanced.tasks[i].nodes);
    merged_nodes.push_back(balanced.tasks[i].nodes);
  }
  split_nodes.push_back(2);  // PC starved -> bottleneck
  split_nodes.push_back(2);  // CFAR
  merged_nodes.push_back(4);

  const auto split = PipelineSpec::embedded_io(p, split_nodes);
  const auto merged = PipelineSpec::combined(p, merged_nodes);
  const SimResult a = SimRunner(split, machine).run();
  const SimResult b = SimRunner(merged, machine).run();

  // Verify the premise: PC (or CFAR) really is the bottleneck in the split.
  Seconds t_max = 0, t_tail = 0;
  for (const auto& c : a.costs) {
    t_max = std::max(t_max, c.occupancy);
    if (c.kind == TaskKind::kPulseCompression || c.kind == TaskKind::kCfar) {
      t_tail = std::max(t_tail, c.occupancy);
    }
  }
  ASSERT_DOUBLE_EQ(t_max, t_tail);

  EXPECT_GT(b.measured_throughput, 1.05 * a.measured_throughput);
  EXPECT_LT(b.measured_latency, a.measured_latency);
}

TEST(SimRunnerTest, UtilizationBoundedAndBottleneckSaturated) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  const SimResult r = SimRunner(spec, paragon_like(64)).run();
  ASSERT_EQ(r.utilization.size(), spec.tasks.size());
  double max_util = 0;
  for (const double u : r.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-6);
    max_util = std::max(max_util, u);
  }
  EXPECT_GT(max_util, 0.9);  // someone is the bottleneck
}

TEST(SimRunnerTest, SlowerInputPeriodLowersThroughputNotLatency) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  SimOptions slow;
  slow.input_period = 2.0;  // radar slower than the pipeline
  const SimResult fast = SimRunner(spec, paragon_like(64)).run();
  const SimResult idle = SimRunner(spec, paragon_like(64), slow).run();
  EXPECT_NEAR(idle.measured_throughput, 0.5, 0.01);
  EXPECT_NEAR(idle.measured_latency, fast.measured_latency,
              0.05 * fast.measured_latency);
}

TEST(SimRunnerTest, ReplicatingTheBottleneckScalesThroughput) {
  // Round-robin task replication (the paper's Figs. 3-4 scheduling boxes):
  // two instances of the bottleneck task double its sustainable rate
  // without changing per-CPI latency.
  const auto p = paper_params();
  const auto machine = paragon_like(64);
  // Starve hard beamforming so it is the clear bottleneck.
  auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  spec.tasks[static_cast<std::size_t>(spec.find(TaskKind::kBeamformHard))].nodes = 1;

  const SimResult base = SimRunner(spec, machine).run();
  Seconds t_max = 0, t_bh = 0;
  for (const auto& c : base.costs) {
    t_max = std::max(t_max, c.occupancy);
    if (c.kind == TaskKind::kBeamformHard) t_bh = c.occupancy;
  }
  ASSERT_DOUBLE_EQ(t_max, t_bh);  // premise: hard BF is the bottleneck

  SimOptions opt;
  opt.replicas[TaskKind::kBeamformHard] = 2;
  const SimResult replicated = SimRunner(spec, machine, opt).run();
  EXPECT_GT(replicated.measured_throughput, 1.3 * base.measured_throughput);
  EXPECT_NEAR(replicated.measured_latency, base.measured_latency,
              0.05 * base.measured_latency);
}

TEST(SimRunnerTest, ReplicationOfIoTasksIsRejected) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  SimOptions opt;
  opt.replicas[TaskKind::kDoppler] = 2;  // embedded I/O: reads files
  EXPECT_THROW(SimRunner(spec, paragon_like(64), opt).run(), PreconditionError);

  // With a separate read task, the Doppler task no longer reads files and
  // may be replicated; the read task itself may not.
  const auto sep = proportional_assignment(p, 50, IoStrategy::kSeparateTask, false, 6);
  EXPECT_NO_THROW(SimRunner(sep, paragon_like(64), opt).run());
  SimOptions opt2;
  opt2.replicas[TaskKind::kParallelRead] = 2;
  EXPECT_THROW(SimRunner(sep, paragon_like(64), opt2).run(), PreconditionError);
}

TEST(SimRunnerTest, RejectsBadOptions) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 25, IoStrategy::kEmbedded, false);
  SimOptions opt;
  opt.cpis = 1;
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt), PreconditionError);
  opt = SimOptions{};
  opt.warmup = opt.cpis;
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt), PreconditionError);
  opt = SimOptions{};
  opt.input_period = -1;
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt), PreconditionError);
}

TEST(SimRunnerTest, CrashEventStretchesLatencyByItsStall) {
  // A crash at a latency-path stage (PC, steady-state CPI): the CPI's
  // service stretches by detection + recovery + lost_work.
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  SimOptions opt;
  opt.cpis = 16;
  opt.warmup = 4;
  const SimResult clean = SimRunner(spec, paragon_like(64), opt).run();

  SimOptions::CrashEvent crash;
  crash.task = TaskKind::kPulseCompression;
  crash.cpi = 8;
  crash.detection = 0.010;
  crash.recovery = 0.050;
  crash.lost_work = 0.025;
  const Seconds stall = crash.detection + crash.recovery + crash.lost_work;

  // Saturated source, crash at the bottleneck stage (zero slack, so the
  // stall pushes every later exit back): the measured
  // (availability-degraded) throughput must drop and latency must grow.
  {
    auto copt = opt;
    SimOptions::CrashEvent bneck = crash;
    Seconds occ_max = 0;
    for (const auto& c : clean.costs) {
      if (c.occupancy > occ_max) {
        occ_max = c.occupancy;
        bneck.task = c.kind;
      }
    }
    copt.crashes.push_back(bneck);
    const SimResult crashed = SimRunner(spec, paragon_like(64), copt).run();
    EXPECT_LT(crashed.measured_throughput, clean.measured_throughput);
    EXPECT_GT(crashed.measured_latency, clean.measured_latency);
  }

  // Unsaturated source (period > occupancy + stall, so CPIs never queue
  // behind the stall): only the crashed CPI's latency grows, by exactly
  // the stall, so the mean grows by stall / steady-window size.
  Seconds t_max = 0;
  for (const auto& c : clean.costs) t_max = std::max(t_max, c.occupancy);
  opt.input_period = 10 * t_max + stall;

  const SimResult slack = SimRunner(spec, paragon_like(64), opt).run();
  opt.crashes.push_back(crash);
  const SimResult crashed = SimRunner(spec, paragon_like(64), opt).run();

  const Seconds expect = slack.measured_latency +
                         stall / static_cast<double>(opt.cpis - opt.warmup);
  EXPECT_NEAR(crashed.measured_latency, expect, 1e-9 + 1e-6 * expect);
}

TEST(SimRunnerTest, CrashEventValidation) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 25, IoStrategy::kEmbedded, false);
  SimOptions opt;
  opt.crashes.push_back({TaskKind::kPulseCompression, /*cpi=*/-1, 0, 0, 0});
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt).run(), PreconditionError);
  opt.crashes = {{TaskKind::kParallelRead, /*cpi=*/0, 0, 0, 0}};  // embedded: absent
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt).run(), PreconditionError);
  opt.crashes = {{TaskKind::kDoppler, /*cpi=*/0, -1.0, 0, 0}};
  EXPECT_THROW(SimRunner(spec, paragon_like(16), opt).run(), PreconditionError);
}

TEST(SimRunnerTest, DeterministicAcrossRuns) {
  const auto p = paper_params();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  const SimResult a = SimRunner(spec, paragon_like(16)).run();
  const SimResult b = SimRunner(spec, paragon_like(16)).run();
  EXPECT_DOUBLE_EQ(a.measured_throughput, b.measured_throughput);
  EXPECT_DOUBLE_EQ(a.measured_latency, b.measured_latency);
}

// ----------------------------------------------------------- pinned values --
//
// Exact per-task costs, SimRunner measurements and node apportionments of
// all three organizations, as hex-float literals. The shape tests above
// check inequalities; these catch any change to a peer sum, a work term,
// an edge or the I/O branch. They cover the read task and synchronous I/O
// (sp_like), which the Table 3 golden report never reaches.

const std::vector<int> kEmbeddedNodes{8, 2, 6, 4, 10, 6, 4};
const std::vector<int> kSeparateNodes{4, 8, 2, 6, 4, 10, 6, 4};
const std::vector<int> kCombinedNodes{8, 2, 6, 4, 10, 10};

struct PinnedCost {
  Seconds receive, compute, send, occupancy, io;
};

const PinnedCost kEmbeddedParagon[] = {
    {0x0p+0, 0x1.bef9a10a73b7dp-2, 0x1.1506f841c59d2p-4, 0x1.021daf8d728f9p-1, 0x1.86ae93b50c752p-3},
    {0x1.84eab5ebdfb78p-6, 0x1.44f02844264dp-2, 0x1.24c32de799d7bp-10, 0x1.5e6396d0cbe25p-2, 0x0p+0},
    {0x1.754b05b7cfe58p-9, 0x1.f1d0b0764cb35p-5, 0x1.16ebd4cfd08d5p-10, 0x1.08ee5fbc241bp-4, 0x0p+0},
    {0x1.7d5fa72f84521p-4, 0x1.308ad8955c7b9p-2, 0x1.81a3d98e7c2f2p-6, 0x1.a7fcfffa2553p-2, 0x0p+0},
    {0x1.71418bbb8a853p-7, 0x1.16d3622b40fc3p-5, 0x1.df68b0c381ca7p-10, 0x1.821f0aa03fabdp-5, 0x0p+0},
    {0x1.330823735af9dp-6, 0x1.8827a0bf6f063p-3, 0x1.22a5d5a0694fep-6, 0x1.d2dd5fe1e78f7p-3, 0x0p+0},
    {0x1.b3f8c0709df7dp-6, 0x1.c0ff6f5b86784p-6, 0x1.3deda158aabcp-12, 0x1.bcf7f328c38d8p-5, 0x0p+0},
};
const PinnedCost kEmbeddedSp[] = {
    {0x1.eada78c455a9cp-5, 0x1.c3d81823b94cdp-4, 0x1.35e894100b8acp-4, 0x1.f796f44af7d64p-3, 0x1.eada78c455a9cp-5},
    {0x1.b2bd570e03cecp-6, 0x1.475f63d0c9178p-4, 0x1.00b0ffe7ac4c2p-10, 0x1.b8117d93e8bc6p-4, 0x0p+0},
    {0x1.5cb9f68c7c5bfp-9, 0x1.0a27eea108aabp-6, 0x1.f020519071955p-12, 0x1.3d7faeb8d9fc8p-6, 0x0p+0},
    {0x1.b0d017042883bp-4, 0x1.341bdd84bf9cfp-4, 0x1.b16dcbb575983p-6, 0x1.a8a3b3bb22c35p-3, 0x0p+0},
    {0x1.83ed9d459a7b6p-7, 0x1.4155d07b29fe2p-7, 0x1.af0dfb2dea7a2p-10, 0x1.7d92969340e46p-6, 0x0p+0},
    {0x1.4ddaa74dc17cep-6, 0x1.90c76bf2602ecp-5, 0x1.474cee92fa6c1p-6, 0x1.6dad9b715f11ap-4, 0x0p+0},
    {0x1.eaf365dc77a22p-6, 0x1.fa0fbe51b88f2p-8, 0x1.1d73ccfb2d512p-12, 0x1.36f69252693d9p-5, 0x0p+0},
};
const PinnedCost kSeparateParagon[] = {
    {0x1.57d5c57710eb8p-4, 0x1.3056fa766079fp-10, 0x1.b0c606092e7cep-4, 0x1.86ae93b50c752p-3, 0x1.86ae93b50c752p-3},
    {0x1.b0c606092e7cep-5, 0x1.bef9a10a73b7dp-2, 0x1.1506f841c59d2p-4, 0x1.1d2a0fee05776p-1, 0x0p+0},
    {0x1.84eab5ebdfb78p-6, 0x1.44f02844264dp-2, 0x1.24c32de799d7bp-10, 0x1.5e6396d0cbe25p-2, 0x0p+0},
    {0x1.754b05b7cfe58p-9, 0x1.f1d0b0764cb35p-5, 0x1.16ebd4cfd08d5p-10, 0x1.08ee5fbc241bp-4, 0x0p+0},
    {0x1.7d5fa72f84521p-4, 0x1.308ad8955c7b9p-2, 0x1.81a3d98e7c2f2p-6, 0x1.a7fcfffa2553p-2, 0x0p+0},
    {0x1.71418bbb8a853p-7, 0x1.16d3622b40fc3p-5, 0x1.df68b0c381ca7p-10, 0x1.821f0aa03fabdp-5, 0x0p+0},
    {0x1.330823735af9dp-6, 0x1.8827a0bf6f063p-3, 0x1.22a5d5a0694fep-6, 0x1.d2dd5fe1e78f7p-3, 0x0p+0},
    {0x1.b3f8c0709df7dp-6, 0x1.c0ff6f5b86784p-6, 0x1.3deda158aabcp-12, 0x1.bcf7f328c38d8p-5, 0x0p+0},
};
const PinnedCost kSeparateSp[] = {
    {0x1.eada78c455a9cp-4, 0x1.3056fa766079fp-10, 0x1.ec2a041ce3e05p-4, 0x1.ede2ec658986p-3, 0x1.eada78c455a9cp-4},
    {0x1.ec2a041ce3e05p-5, 0x1.c3d81823b94cdp-4, 0x1.35e894100b8acp-4, 0x1.f7ead7211b63ep-3, 0x0p+0},
    {0x1.b2bd570e03cecp-6, 0x1.475f63d0c9178p-4, 0x1.00b0ffe7ac4c2p-10, 0x1.b8117d93e8bc6p-4, 0x0p+0},
    {0x1.5cb9f68c7c5bfp-9, 0x1.0a27eea108aabp-6, 0x1.f020519071955p-12, 0x1.3d7faeb8d9fc8p-6, 0x0p+0},
    {0x1.b0d017042883bp-4, 0x1.341bdd84bf9cfp-4, 0x1.b16dcbb575983p-6, 0x1.a8a3b3bb22c35p-3, 0x0p+0},
    {0x1.83ed9d459a7b6p-7, 0x1.4155d07b29fe2p-7, 0x1.af0dfb2dea7a2p-10, 0x1.7d92969340e46p-6, 0x0p+0},
    {0x1.4ddaa74dc17cep-6, 0x1.90c76bf2602ecp-5, 0x1.474cee92fa6c1p-6, 0x1.6dad9b715f11ap-4, 0x0p+0},
    {0x1.eaf365dc77a22p-6, 0x1.fa0fbe51b88f2p-8, 0x1.1d73ccfb2d512p-12, 0x1.36f69252693d9p-5, 0x0p+0},
};
const PinnedCost kCombinedParagon[] = {
    {0x0p+0, 0x1.bef9a10a73b7dp-2, 0x1.1506f841c59d2p-4, 0x1.021daf8d728f9p-1, 0x1.86ae93b50c752p-3},
    {0x1.84eab5ebdfb78p-6, 0x1.44f02844264dp-2, 0x1.24c32de799d7bp-10, 0x1.5e6396d0cbe25p-2, 0x0p+0},
    {0x1.754b05b7cfe58p-9, 0x1.f1d0b0764cb35p-5, 0x1.16ebd4cfd08d5p-10, 0x1.08ee5fbc241bp-4, 0x0p+0},
    {0x1.7d5fa72f84521p-4, 0x1.308ad8955c7b9p-2, 0x1.88319249433ffp-6, 0x1.a865db85d1c41p-2, 0x0p+0},
    {0x1.71418bbb8a853p-7, 0x1.16d3622b40fc3p-5, 0x1.24221e37f96b9p-9, 0x1.8565e6fda3344p-5, 0x0p+0},
    {0x1.82c9c9623427ap-7, 0x1.05c1165fabf4p-3, 0x1.7c2bf57c43727p-13, 0x1.1e4cbdf32e476p-3, 0x0p+0},
};
const PinnedCost kCombinedSp[] = {
    {0x1.eada78c455a9cp-5, 0x1.c3d81823b94cdp-4, 0x1.35e894100b8acp-4, 0x1.f796f44af7d64p-3, 0x1.eada78c455a9cp-5},
    {0x1.b2bd570e03cecp-6, 0x1.475f63d0c9178p-4, 0x1.00b0ffe7ac4c2p-10, 0x1.b8117d93e8bc6p-4, 0x0p+0},
    {0x1.5cb9f68c7c5bfp-9, 0x1.0a27eea108aabp-6, 0x1.f020519071955p-12, 0x1.3d7faeb8d9fc8p-6, 0x0p+0},
    {0x1.b0d017042883bp-4, 0x1.341bdd84bf9cfp-4, 0x1.b40ce26692055p-6, 0x1.a8f796914651p-3, 0x0p+0},
    {0x1.83ed9d459a7b6p-7, 0x1.4155d07b29fe2p-7, 0x1.d8ff663fb14cp-10, 0x1.8031ad445d518p-6, 0x0p+0},
    {0x1.97f7084d37c75p-7, 0x1.1061b1f3a6347p-5, 0x1.16b18ade46098p-13, 0x1.77762591d26c5p-5, 0x0p+0},
};

void expect_pinned(const PipelineSpec& spec, const MachineModel& machine,
                   std::span<const PinnedCost> want) {
  const std::vector<StageCost> got = CostModel(spec, machine).all();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(std::string(machine.name) + " " + task_name(got[i].kind));
    EXPECT_EQ(got[i].receive, want[i].receive);
    EXPECT_EQ(got[i].compute, want[i].compute);
    EXPECT_EQ(got[i].send, want[i].send);
    EXPECT_EQ(got[i].occupancy, want[i].occupancy);
    EXPECT_EQ(got[i].io, want[i].io);
  }
}

TEST(PinnedCosts, EmbeddedIo) {
  const auto spec = PipelineSpec::embedded_io(paper_params(), kEmbeddedNodes);
  expect_pinned(spec, paragon_like(16), kEmbeddedParagon);
  expect_pinned(spec, sp_like(), kEmbeddedSp);
}

TEST(PinnedCosts, SeparateIo) {
  const auto spec = PipelineSpec::separate_io(paper_params(), kSeparateNodes);
  expect_pinned(spec, paragon_like(16), kSeparateParagon);
  expect_pinned(spec, sp_like(), kSeparateSp);
}

TEST(PinnedCosts, Combined) {
  const auto spec = PipelineSpec::combined(paper_params(), kCombinedNodes);
  expect_pinned(spec, paragon_like(16), kCombinedParagon);
  expect_pinned(spec, sp_like(), kCombinedSp);
}

TEST(PinnedCosts, SimRunnerMeasurements) {
  const auto p = paper_params();
  const PipelineSpec specs[] = {PipelineSpec::embedded_io(p, kEmbeddedNodes),
                                PipelineSpec::separate_io(p, kSeparateNodes),
                                PipelineSpec::combined(p, kCombinedNodes)};
  // {throughput, latency}: per organization, paragon_like(16) then sp_like().
  const double want[][2] = {
      {0x1.fbcd82793637bp+0, 0x1.3351835ac5ab5p+0},
      {0x1.0446806a8ad94p+2, 0x1.2933c694d91c7p-1},
      {0x1.cba303485b3bap+0, 0x1.71ad8601b0b18p+0},
      {0x1.041b2c92fb5bfp+2, 0x1.a4c17a63c4629p-1},
      {0x1.fbcd827936379p+0, 0x1.0ef1e6669382p+0},
      {0x1.0446806a8ad95p+2, 0x1.ff360a2059615p-2},
  };
  std::size_t row = 0;
  for (const PipelineSpec& spec : specs) {
    for (const MachineModel& machine : {paragon_like(16), sp_like()}) {
      const SimResult r = SimRunner(spec, machine).run();
      EXPECT_EQ(r.measured_throughput, want[row][0]) << row;
      EXPECT_EQ(r.measured_latency, want[row][1]) << row;
      ++row;
    }
  }
}

TEST(PinnedCosts, ProportionalAssignment) {
  struct Row {
    int total;
    std::vector<int> embedded, separate, combined;
  };
  // The separate-I/O read task gets 3 dedicated nodes on top of `total`.
  const Row rows[] = {
      {7, {1, 1, 1, 1, 1, 1, 1}, {3, 1, 1, 1, 1, 1, 1, 1}, {2, 1, 1, 1, 1, 1}},
      {25, {9, 2, 2, 5, 2, 4, 1}, {3, 9, 2, 2, 5, 2, 4, 1}, {10, 2, 2, 5, 2, 4}},
      {50, {21, 4, 3, 9, 3, 8, 2}, {3, 21, 4, 3, 9, 3, 8, 2}, {22, 4, 3, 10, 3, 8}},
      {100, {43, 8, 5, 19, 6, 15, 4}, {3, 43, 8, 5, 19, 6, 15, 4}, {45, 8, 5, 20, 6, 16}},
  };
  const auto nodes = [](const PipelineSpec& spec) {
    std::vector<int> n;
    for (const auto& t : spec.tasks) n.push_back(t.nodes);
    return n;
  };
  const auto p = paper_params();
  for (const Row& r : rows) {
    SCOPED_TRACE(r.total);
    EXPECT_EQ(nodes(proportional_assignment(p, r.total, IoStrategy::kEmbedded, false)),
              r.embedded);
    EXPECT_EQ(nodes(proportional_assignment(p, r.total, IoStrategy::kSeparateTask,
                                            false, /*io_nodes=*/3)),
              r.separate);
    EXPECT_EQ(nodes(proportional_assignment(p, r.total, IoStrategy::kEmbedded, true)),
              r.combined);
  }
}

}  // namespace
}  // namespace pstap::sim
