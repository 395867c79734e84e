// Worker-count determinism suite for the LP-sharded cell world: the same
// config must produce a bit-identical WorldDigest — traffic counters,
// cluster counts, final clocks, next raw RNG word per cell, merged fault
// log, kernel event/message totals — under no pool, a 2-worker pool, and a
// hardware-sized pool. Plus fault-replay parity: feeding a run's planned
// schedule back as the explicit fault list reproduces the digest exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sim/parallel/cell_world.hpp"

namespace tcast::sim::parallel {
namespace {

CellWorldConfig small_world(std::uint64_t seed) {
  CellWorldConfig cfg;
  cfg.cells = 5;
  cfg.motes_per_cell = 6;
  cfg.seed = seed;
  cfg.duration = 120 * kMillisecond;
  cfg.beacon_period = 12 * kMillisecond;
  cfg.clean_loss = 0.05;
  cfg.random_faults = 4;
  return cfg;
}

struct RunOutput {
  WorldDigest digest;
  std::vector<FaultSpec> planned;
  KernelStats stats;
};

RunOutput run_world(CellWorldConfig cfg, ThreadPool* pool) {
  cfg.pool = pool;
  CellWorld world(cfg);
  world.run();
  return {world.digest(), world.planned_faults(), world.stats()};
}

TEST(CellWorldDeterminism, DigestBitIdenticalAcrossWorkerCounts) {
  const CellWorldConfig cfg = small_world(0xD5);
  const RunOutput inline_run = run_world(cfg, nullptr);

  // The world must actually be busy: beacons flowing, faults landing,
  // cross-cell messages routed — otherwise this test proves nothing.
  std::uint64_t sent = 0, received = 0;
  for (const CellDigest& c : inline_run.digest.cells) {
    sent += c.frames_sent;
    received += c.frames_received;
  }
  EXPECT_GT(sent, 50u);
  EXPECT_GT(received, sent);  // broadcast: many receivers per send
  EXPECT_EQ(inline_run.digest.faults.size(), 2 * cfg.random_faults);
  EXPECT_GT(inline_run.digest.messages, 0u);

  const std::size_t hw =
      std::max(2u, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{2}, std::size_t{hw}}) {
    ThreadPool pool(workers);
    const RunOutput pooled = run_world(cfg, &pool);
    EXPECT_EQ(pooled.digest, inline_run.digest) << workers << " workers";
    EXPECT_EQ(pooled.planned, inline_run.planned) << workers << " workers";
    // Window structure is part of the determinism contract too: identical
    // horizons → identical window/message counts whatever the pool.
    EXPECT_EQ(pooled.stats.windows, inline_run.stats.windows);
    EXPECT_EQ(pooled.stats.messages, inline_run.stats.messages);
  }
}

TEST(CellWorldDeterminism, FaultedWorldMatchesGoldenDigest) {
  // Bit-identity pin, not only cross-worker agreement: these values were
  // recorded from the per-receiver-frame-list channel this world ran on
  // before the air-log channel replaced it. Any change to who hears what,
  // to collision resolution, or to the order of RNG draws moves them.
  CellWorldConfig cfg;
  cfg.cells = 4;
  cfg.motes_per_cell = 64;
  cfg.seed = 0x601d;
  cfg.duration = 100 * kMillisecond;
  cfg.beacon_period = 40 * kMillisecond;
  cfg.clean_loss = 0.05;
  cfg.random_faults = 3;
  const RunOutput out = run_world(cfg, nullptr);

  // {sent, dropped, received, clusters, clock, rng_probe} per cell.
  const std::vector<CellDigest> golden = {
      {70, 71, 487, 88, 99926, 0xbcb390576ceaf43aull},
      {85, 60, 1017, 95, 99891, 0x14ec9218e99c444aull},
      {71, 63, 236, 86, 99926, 0xeff7cb0bec8adc7cull},
      {84, 59, 898, 92, 99797, 0x04fd1ad79179f4f2ull},
  };
  EXPECT_EQ(out.digest.cells, golden);
  EXPECT_EQ(out.digest.events, 4489u);
  EXPECT_EQ(out.digest.messages, 626u);
  const std::vector<AppliedFault> faults = {
      {34320, 1, 62, true},  {34468, 3, 58, true},  {38922, 3, 22, true},
      {48486, 3, 58, false}, {50013, 3, 22, false}, {55075, 1, 62, false},
  };
  EXPECT_EQ(out.digest.faults, faults);
}

TEST(CellWorldDeterminism, SeedChangesDigest) {
  const RunOutput a = run_world(small_world(0xD5), nullptr);
  const RunOutput b = run_world(small_world(0xD6), nullptr);
  EXPECT_NE(a.digest, b.digest);
}

TEST(CellWorldDeterminism, PlannedFaultReplayReproducesDigest) {
  const CellWorldConfig recorded_cfg = small_world(0x7E57);
  const RunOutput recorded = run_world(recorded_cfg, nullptr);
  ASSERT_EQ(recorded.planned.size(), recorded_cfg.random_faults);

  // Replay: the planned schedule becomes the explicit fault list and the
  // random drawing is turned off. The control-plane RNG then never draws,
  // but fault *application* is identical — and since fault randomness
  // lives entirely on the control LP, every cell digest (incl. its RNG
  // probe) and the applied-fault log must reproduce bit-for-bit.
  CellWorldConfig replay_cfg = recorded_cfg;
  replay_cfg.random_faults = 0;
  replay_cfg.faults = recorded.planned;
  const RunOutput replayed = run_world(replay_cfg, nullptr);

  EXPECT_EQ(replayed.digest.cells, recorded.digest.cells);
  EXPECT_EQ(replayed.digest.faults, recorded.digest.faults);

  // And replay under a pool agrees with replay inline.
  ThreadPool pool(2);
  const RunOutput replayed_pooled = run_world(replay_cfg, &pool);
  EXPECT_EQ(replayed_pooled.digest, replayed.digest);
}

TEST(CellWorldDeterminism, FaultsActuallySilenceMotes) {
  // One mote crashed for the whole run sends (almost) nothing: only
  // beacons already armed before the crash may still fire. Compare
  // against the identical world without the fault.
  CellWorldConfig cfg;
  cfg.cells = 3;
  cfg.motes_per_cell = 4;
  cfg.seed = 9;
  cfg.duration = 100 * kMillisecond;
  cfg.beacon_period = 10 * kMillisecond;

  const RunOutput clean = run_world(cfg, nullptr);

  FaultSpec crash;
  crash.cell = 1;
  crash.mote = 2;
  crash.down_at = cfg.cross_cell_delay;  // earliest announceable instant
  crash.up_at = cfg.duration;            // never reboots inside the run
  cfg.faults = {crash};
  const RunOutput faulty = run_world(cfg, nullptr);

  ASSERT_EQ(faulty.digest.faults.size(), 2u);
  EXPECT_TRUE(faulty.digest.faults[0].down);
  EXPECT_LT(faulty.digest.cells[1].frames_sent,
            clean.digest.cells[1].frames_sent);
}

TEST(CellWorldDeterminism, StatsReflectConservativeWindows) {
  const RunOutput out = run_world(small_world(0xBEE), nullptr);
  EXPECT_GT(out.stats.windows, 0u);
  EXPECT_GT(out.stats.events, 0u);
  EXPECT_GE(out.stats.relax_passes, out.stats.windows);
  // digest() mirrors the kernel totals.
  EXPECT_EQ(out.digest.events, out.stats.events);
  EXPECT_EQ(out.digest.messages, out.stats.messages);
}

}  // namespace
}  // namespace tcast::sim::parallel
