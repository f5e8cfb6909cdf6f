// Multi-process sweep-fabric validation: merged results bit-identical to a
// single-process run across worker counts, crash / stall / lease-steal
// fault recovery, resume, fingerprint refusal, and the grid/assembler
// invariants the merge relies on.
//
// This suite has its own main(): the multi-process tests re-exec this
// binary as a coordinator child (`test_fabric --fabric-child <dir> ...`),
// which forks its worker fleet from a thread-free process (forking the
// gtest process after a reference sweep would inherit dead thread-pool
// state). gtest_main would try to parse the child flags, so the binary
// links GTest::gtest and dispatches by hand.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/shutdown.h"
#include "common/stopwatch.h"
#include "exp/fabric.h"
#include "exp/journal.h"

namespace qfab {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture configuration: the coordinator child rebuilds the exact
// same sweep from the seed alone. block = batch_lanes = 2 over 5 instances
// -> 3 groups (one ragged), 2 depths -> 6 work units.

SweepConfig fabric_test_config(std::uint64_t seed = 77) {
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {1, kFullDepth};
  cfg.rates_percent = {0.5, 1.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 2};
  cfg.instances = 5;
  cfg.run.shots = 64;
  cfg.run.error_trajectories = 4;
  cfg.run.batch_lanes = 2;
  cfg.seed = seed;
  cfg.progress = false;
  return cfg;
}

constexpr std::size_t kUnits = 6;

/// Lease of the fault-injection tests. A healthy worker renews every
/// lease/4; if it stalls past the whole lease (a loaded host, TSan's
/// slowdown) the coordinator breaks its lease too and the exact steal
/// counts below turn into 2. At 2 s a healthy worker must stall 2 s; a
/// faulted lease still expires in about 2 s, which is what those tests
/// wait for.
constexpr double kFaultLease = 2.0;

std::vector<ArithInstance> fabric_test_instances(const SweepConfig& cfg) {
  Pcg64 rng(cfg.seed);
  return generate_instances(cfg.instances, cfg.base.n, cfg.base.n, cfg.orders,
                            rng);
}

// Per-process scratch directory: ctest -j runs the plain and forced-scalar
// variants of this suite concurrently.
std::string tmp_path(const std::string& name) {
  static const std::string dir = [] {
    const std::string d =
        "test_fabric_tmp_" + std::to_string(static_cast<long>(::getpid()));
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir + "/" + name;
}

void cleanup_tmp() {
  std::error_code ec;
  std::filesystem::remove_all(
      "test_fabric_tmp_" + std::to_string(static_cast<long>(::getpid())), ec);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  QFAB_CHECK(n > 0);
  buf[n] = '\0';
  return buf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// What the coordinator child writes to its --report file.
struct ChildReport {
  int complete = -1;
  int steals = -1;
  int kills = -1;
  int respawns = -1;
  int spawned = -1;
  std::size_t restored = 0;
  std::size_t done = 0;
};

ChildReport read_report(const std::string& path) {
  ChildReport rep;
  const std::string text = slurp(path);
  EXPECT_EQ(std::sscanf(text.c_str(),
                        "complete=%d steals=%d kills=%d respawns=%d "
                        "spawned=%d restored=%zu done=%zu",
                        &rep.complete, &rep.steals, &rep.kills, &rep.respawns,
                        &rep.spawned, &rep.restored, &rep.done),
            7)
      << "unparseable child report: " << text;
  return rep;
}

/// Re-exec this binary as a fabric coordinator with `fault` armed via
/// QFAB_FAULT. The child writes its merged CSV and a report file next to
/// the fabric directory. Returns the child's exit code (-1 on signal).
int spawn_fabric(const std::string& fault, const std::string& dir,
                 int workers, bool resume, std::uint64_t seed = 77,
                 double lease = 5.0, int max_respawns = 3) {
  std::string cmd;
  if (!fault.empty()) cmd += "QFAB_FAULT='" + fault + "' ";
  cmd += "'" + self_exe() + "' --fabric-child '" + dir + "'";
  cmd += " --workers " + std::to_string(workers);
  if (resume) cmd += " --resume";
  cmd += " --child-seed " + std::to_string(seed);
  cmd += " --lease " + std::to_string(lease);
  cmd += " --max-respawns " + std::to_string(max_respawns);
  cmd += " --csv '" + dir + ".csv' --report '" + dir + ".report'";
  cmd += " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The single-process truth: the same sweep through run_sweep, rendered
/// with the same canonical CSV table the fabric children write.
const std::string& reference_csv() {
  static const std::string text = [] {
    const SweepConfig cfg = fabric_test_config();
    const SweepResult r = run_sweep(cfg, fabric_test_instances(cfg));
    const std::string path = tmp_path("reference.csv");
    sweep_csv_table(r).write_csv(path);
    return slurp(path);
  }();
  return text;
}

std::size_t total_shard_records(const FabricStatus& status) {
  std::size_t n = 0;
  for (const FabricShardStatus& shard : status.shards) n += shard.records;
  return n;
}

// ---------------------------------------------------------------------------
// In-process invariants the merge relies on.

TEST(Fabric, GridGeometryRoundTrips) {
  const SweepConfig cfg = fabric_test_config();
  const SweepGrid grid(cfg, 5);
  EXPECT_EQ(grid.block, 2u);
  EXPECT_EQ(grid.n_groups, 3u);
  EXPECT_EQ(grid.n_depths, 2u);
  EXPECT_EQ(grid.n_units, kUnits);
  for (std::size_t u = 0; u < grid.n_units; ++u) {
    const SweepGrid::UnitKey key = grid.key(u);
    EXPECT_EQ(grid.unit_of(key.depth_index, key.block_begin, key.block_end),
              u);
  }
  // The final block is ragged (5 % 2 != 0) and still on-grid.
  EXPECT_EQ(grid.key(grid.n_units - 1).block_end, 5u);
  // Off-grid coordinates are rejected, not aliased to a neighbour.
  EXPECT_EQ(grid.unit_of(0, 1, 3), SweepGrid::npos);
  EXPECT_EQ(grid.unit_of(0, 0, 1), SweepGrid::npos);
  EXPECT_EQ(grid.unit_of(2, 0, 2), SweepGrid::npos);
}

TEST(Fabric, AssemblerDeduplicatesAndRejectsMisfits) {
  const SweepConfig cfg = fabric_test_config();
  SweepExecution exec(cfg, fabric_test_instances(cfg));
  const SweepGrid& grid = exec.grid();
  const SweepGrid::UnitKey key = grid.key(0);
  UnitResult out = exec.run_unit(0);
  const auto outcomes = out.outcomes;  // keep a copy to replay

  SweepAssembler assembler(cfg, grid);
  EXPECT_EQ(assembler.add_record(key.depth_index, key.block_begin,
                                 key.block_end, outcomes, out.stats, ""),
            SweepAssembler::Add::kAdded);
  EXPECT_TRUE(assembler.done(0));
  EXPECT_EQ(assembler.units_done(), 1u);
  // A bit-identical duplicate (crash window, broken lease) is ignored.
  EXPECT_EQ(assembler.add_record(key.depth_index, key.block_begin,
                                 key.block_end, outcomes, out.stats, ""),
            SweepAssembler::Add::kDuplicate);
  EXPECT_EQ(assembler.units_done(), 1u);
  // Off-grid coordinates and mis-shaped outcomes never reach the matrix.
  EXPECT_EQ(assembler.add_record(key.depth_index, 1, 3, outcomes, out.stats,
                                 ""),
            SweepAssembler::Add::kMisfit);
  auto truncated = outcomes;
  truncated.pop_back();
  EXPECT_EQ(assembler.add_record(grid.key(1).depth_index,
                                 grid.key(1).block_begin,
                                 grid.key(1).block_end, truncated, out.stats,
                                 ""),
            SweepAssembler::Add::kMisfit);
  EXPECT_FALSE(assembler.done(1));
}

// ---------------------------------------------------------------------------
// Multi-process: the merged CSV must be byte-identical to the
// single-process truth, whatever the worker count or injected failure.

TEST(Fabric, MergedCsvBitIdenticalAcrossWorkerCounts) {
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string dir = tmp_path("w" + std::to_string(workers));
    ASSERT_EQ(spawn_fabric("", dir, workers, /*resume=*/false), 0);
    EXPECT_EQ(slurp(dir + ".csv"), reference_csv());

    const ChildReport rep = read_report(dir + ".report");
    EXPECT_EQ(rep.complete, 1);
    EXPECT_EQ(rep.done, kUnits);
    EXPECT_EQ(rep.steals, 0);
    EXPECT_EQ(rep.kills, 0);
    EXPECT_EQ(rep.respawns, 0);
    EXPECT_EQ(rep.spawned, workers);

    const FabricStatus status = inspect_fabric(dir);
    EXPECT_TRUE(status.manifest_ok);
    EXPECT_EQ(status.n_units, kUnits);
    EXPECT_EQ(status.done_markers, kUnits);
    EXPECT_TRUE(status.leases.empty());
    EXPECT_EQ(total_shard_records(status), kUnits);
    for (const FabricShardStatus& shard : status.shards) {
      EXPECT_TRUE(shard.header_ok);
      EXPECT_TRUE(shard.fingerprint_ok);
      EXPECT_FALSE(shard.dropped_tail);
    }
  }
}

TEST(Fabric, CrashedWorkerUnitIsReassignedExactlyOnce) {
  // Worker 0 crashes inside its first journal append: the record is durable
  // but the done marker is not, so its lease goes stale and the unit is
  // recomputed — the merge must deduplicate exactly one record.
  const std::string dir = tmp_path("crash");
  ASSERT_EQ(spawn_fabric("crash-after-unit=1,fault-worker=0", dir,
                         /*workers=*/2, /*resume=*/false, 77, kFaultLease),
            0);
  EXPECT_EQ(slurp(dir + ".csv"), reference_csv());

  const ChildReport rep = read_report(dir + ".report");
  EXPECT_EQ(rep.complete, 1);
  EXPECT_EQ(rep.done, kUnits);
  EXPECT_EQ(rep.respawns, 1);
  EXPECT_EQ(rep.steals, 1);
  EXPECT_EQ(rep.kills, 0);  // the holder was already dead, not wedged

  const FabricStatus status = inspect_fabric(dir);
  EXPECT_EQ(status.done_markers, kUnits);
  EXPECT_EQ(total_shard_records(status), kUnits + 1);
}

TEST(Fabric, StalledWorkerLeaseExpiresAndUnitIsReassignedOnce) {
  // Worker 0 wedges on its first claim with the heartbeat stopped: the
  // coordinator must expire the lease, SIGKILL the wedged process, break
  // the lease exactly once, and let the fleet absorb the unit.
  const std::string dir = tmp_path("stall");
  ASSERT_EQ(spawn_fabric("hang-after-unit=0,fault-worker=0", dir,
                         /*workers=*/2, /*resume=*/false, 77, kFaultLease),
            0);
  EXPECT_EQ(slurp(dir + ".csv"), reference_csv());

  const ChildReport rep = read_report(dir + ".report");
  EXPECT_EQ(rep.complete, 1);
  EXPECT_EQ(rep.done, kUnits);
  EXPECT_EQ(rep.steals, 1);
  EXPECT_EQ(rep.kills, 1);
  EXPECT_EQ(rep.respawns, 1);  // SIGKILL (137) is a crash to the supervisor

  const FabricStatus status = inspect_fabric(dir);
  EXPECT_EQ(status.done_markers, kUnits);
  // The wedged worker journaled nothing; every unit has exactly one record.
  EXPECT_EQ(total_shard_records(status), kUnits);
}

TEST(Fabric, LeaseStealDuplicateRecordIsMergedOnce) {
  // Worker 0 journals its first unit but withholds the done marker and
  // stops heartbeating — the slow-holder race. The unit is reassigned and
  // recomputed, so two bit-identical records reach the merge.
  const std::string dir = tmp_path("steal");
  ASSERT_EQ(spawn_fabric("lease-steal=1,fault-worker=0", dir,
                         /*workers=*/2, /*resume=*/false, 77, kFaultLease),
            0);
  EXPECT_EQ(slurp(dir + ".csv"), reference_csv());

  const ChildReport rep = read_report(dir + ".report");
  EXPECT_EQ(rep.complete, 1);
  EXPECT_EQ(rep.done, kUnits);
  EXPECT_EQ(rep.steals, 1);
  EXPECT_EQ(total_shard_records(inspect_fabric(dir)), kUnits + 1);
}

TEST(Fabric, ResumeCompletesAfterRespawnBudgetExhausted) {
  // One worker, no respawn budget: the injected crash strands the sweep
  // after a single durable record and the coordinator returns a resumable
  // incomplete result. A resumed fabric finishes it and the record that
  // predates the crash survives into the merge.
  const std::string dir = tmp_path("resume");
  ASSERT_EQ(spawn_fabric("crash-after-unit=1,fault-worker=0", dir,
                         /*workers=*/1, /*resume=*/false, 77, kFaultLease,
                         /*max_respawns=*/0),
            kResumableExitCode);
  const ChildReport first = read_report(dir + ".report");
  EXPECT_EQ(first.complete, 0);
  EXPECT_EQ(first.done, 1u);

  ASSERT_EQ(spawn_fabric("", dir, /*workers=*/2, /*resume=*/true), 0);
  EXPECT_EQ(slurp(dir + ".csv"), reference_csv());
  const ChildReport second = read_report(dir + ".report");
  EXPECT_EQ(second.complete, 1);
  EXPECT_EQ(second.done, kUnits);
}

TEST(Fabric, FingerprintMismatchRefusesResume) {
  const std::string dir = tmp_path("fingerprint");
  ASSERT_EQ(spawn_fabric("", dir, /*workers=*/1, /*resume=*/false, 77), 0);
  // Same directory, different sweep seed: the coordinator must refuse.
  EXPECT_EQ(spawn_fabric("", dir, /*workers=*/1, /*resume=*/true, 78), 3);
}

TEST(Fabric, InspectAndRepairDamagedShard) {
  const std::string dir = tmp_path("repair");
  ASSERT_EQ(spawn_fabric("", dir, /*workers=*/1, /*resume=*/false), 0);

  // Tear the shard's last record frame and drop a stale lease file, as a
  // crashed machine would.
  const std::string shard = dir + "/shards/shard_0.journal";
  std::filesystem::resize_file(shard,
                               std::filesystem::file_size(shard) - 3);
  { std::ofstream os(dir + "/leases/u000003.lease"); os << "pid=1 worker=9"; }

  const FabricStatus damaged = inspect_fabric(dir);
  ASSERT_EQ(damaged.shards.size(), 1u);
  EXPECT_TRUE(damaged.shards[0].dropped_tail);
  EXPECT_EQ(damaged.shards[0].records, kUnits - 1);
  EXPECT_EQ(damaged.leases.size(), 1u);

  const FabricRepair repair = repair_fabric(dir);
  EXPECT_EQ(repair.shards_rewritten, 1u);
  EXPECT_EQ(repair.dropped_records, 0u);  // torn partial frame, not whole
  EXPECT_GT(repair.dropped_bytes, 0u);
  EXPECT_EQ(repair.leases_cleared, 1u);

  const FabricStatus repaired = inspect_fabric(dir);
  EXPECT_FALSE(repaired.shards[0].dropped_tail);
  EXPECT_EQ(repaired.shards[0].records, kUnits - 1);
  EXPECT_TRUE(repaired.leases.empty());
}

// ---------------------------------------------------------------------------

/// Longest an initial worker waits for the faulted worker's first claim
/// before it starts anyway (the test then fails on its counts, not by
/// hanging).
constexpr double kHoldCapSeconds = 60.0;

/// True once a lease in fabric `dir` names worker `target`, or any unit
/// has a done marker.
bool target_has_claimed(const std::string& dir, long target) {
  namespace fs = std::filesystem;
  const std::string tag = " worker=" + std::to_string(target) + " ";
  std::error_code ec;
  for (fs::directory_iterator it(dir + "/leases", ec), end;
       !ec && it != end; it.increment(ec))
    if (slurp(it->path().string()).find(tag) != std::string::npos)
      return true;
  return !fs::is_empty(dir + "/units", ec) && !ec;
}

int run_fabric_child(const std::string& dir, int workers, bool resume,
                     std::uint64_t seed, double lease, int max_respawns,
                     const std::string& csv, const std::string& report_file) {
  try {
    install_shutdown_latch();
    const SweepConfig cfg = fabric_test_config(seed);
    const std::vector<ArithInstance> instances = fabric_test_instances(cfg);
    FabricOptions options;
    options.dir = dir;
    options.workers = workers;
    options.resume = resume;
    options.lease_seconds = lease;
    options.max_respawns = max_respawns;
    // A fault test needs its target worker to hold a unit before the rest
    // of the fleet can drain the grid, or the injected fault never fires.
    // So every other initial worker waits for the target's first claim;
    // respawned workers start at once.
    int initial_left = workers;
    const long target = fault::fault_worker();
    if (target >= 0) {
      options.spawn = [&](int worker_id) {
        const bool hold = initial_left-- > 0 && worker_id != target;
        const pid_t pid = ::fork();
        QFAB_CHECK(pid >= 0);
        if (pid != 0) return pid;
        if (std::getenv("QFAB_THREADS") == nullptr)
          (void)::setenv("QFAB_THREADS",
                         std::to_string(std::max(
                             1u, std::thread::hardware_concurrency() /
                                     static_cast<unsigned>(workers))).c_str(),
                         1);
        const Stopwatch waited;
        while (hold && !target_has_claimed(dir, target) &&
               waited.seconds() < kHoldCapSeconds)
          ::usleep(5000);
        int code = 1;
        try {
          code = run_sweep_worker(cfg, instances, dir, worker_id, lease);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "worker %d failed: %s\n", worker_id, e.what());
        }
        std::_Exit(code);
      };
    }
    FabricReport report;
    const SweepResult r = run_sweep_fabric(cfg, instances, options, &report);
    if (!csv.empty() && r.complete) sweep_csv_table(r).write_csv(csv);
    if (!report_file.empty()) {
      std::ofstream os(report_file);
      os << "complete=" << (r.complete ? 1 : 0)
         << " steals=" << report.lease_steals << " kills=" << report.kills
         << " respawns=" << report.respawns
         << " spawned=" << report.workers_spawned
         << " restored=" << r.units_restored << " done=" << r.units_done
         << '\n';
    }
    return r.complete ? 0 : kResumableExitCode;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fabric child failed: %s\n", e.what());
    return 3;
  }
}

}  // namespace
}  // namespace qfab

int main(int argc, char** argv) {
  std::string child_dir, child_csv, child_report;
  int child_workers = 1;
  bool child_resume = false;
  std::uint64_t child_seed = 77;
  double child_lease = 5.0;
  int child_max_respawns = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fabric-child" && i + 1 < argc) {
      child_dir = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      child_workers = std::atoi(argv[++i]);
    } else if (arg == "--resume") {
      child_resume = true;
    } else if (arg == "--child-seed" && i + 1 < argc) {
      child_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--lease" && i + 1 < argc) {
      child_lease = std::atof(argv[++i]);
    } else if (arg == "--max-respawns" && i + 1 < argc) {
      child_max_respawns = std::atoi(argv[++i]);
    } else if (arg == "--csv" && i + 1 < argc) {
      child_csv = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      child_report = argv[++i];
    }
  }
  if (!child_dir.empty())
    return qfab::run_fabric_child(child_dir, child_workers, child_resume,
                                  child_seed, child_lease, child_max_respawns,
                                  child_csv, child_report);

  ::testing::InitGoogleTest(&argc, argv);
  const int rc = RUN_ALL_TESTS();
  qfab::cleanup_tmp();
  return rc;
}
