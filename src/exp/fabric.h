// Fault-tolerant multi-process sweep fabric.
//
// run_sweep_durable (exp/sweep.h) makes one process crash-safe; the fabric
// spreads the same sweep over several worker *processes* on one host while
// keeping every durability guarantee — any worker can die (crash, OOM
// kill, wedge) at any instant and the merged result is still bit-identical
// to a single uninterrupted run. The design is a filesystem-backed work
// queue, chosen over pipes/sockets because the filesystem is exactly as
// durable as the journals already are, and because every piece of protocol
// state is inspectable with ls/cat (and qfab_journal --fabric) after a
// failure.
//
// Layout under the fabric directory:
//
//   MANIFEST                  config fingerprint + grid geometry (atomic
//                             write; lets inspectors and workers validate
//                             the directory against their configuration)
//   leases/u<NNNNNN>.lease    exclusive claim on one work unit, created
//                             with O_CREAT|O_EXCL; content
//                             "pid=<p> worker=<w> host=<h> beat=<n>",
//                             replaced (beat+1) by the holder's heartbeat
//   units/u<NNNNNN>.done      completion marker, created only *after* the
//                             unit's record is fsync'd into the owner's
//                             shard journal (marker => record)
//   shards/shard_<W>.journal  per-worker checkpoint journal (exp/journal.h
//                             format, same fingerprint), one per worker
//                             incarnation — ids never reused, so a
//                             respawned worker cannot clobber its
//                             predecessor's durable records
//   shards/shard_<W>.report   worker progress ("units=<n> retried=<m>
//                             drained=<0|1>"), atomically replaced per
//                             unit; advisory only
//
// Protocol files are matched by exact suffix; a `<name>.tmp.<pid>` left by
// a crash mid-rename is ignored by every reader.
//
// Durability: the shard journals are the only truth a restart reads, and a
// unit costs exactly one fsync, its record's append (plus one header and
// one directory fsync per shard). Nothing else is fsync'd, because losing
// it to power failure costs at most a recompute:
//
//   * leases coordinate live processes only — every coordinator start
//     wipes leases/ before spawning a worker;
//   * a lost done marker makes the unit look pending, so it is recomputed
//     and the merge drops the duplicate record; marker => record still
//     holds, since the record and its shard's directory entry are durable
//     before the marker is created;
//   * the report only feeds the merged `retried` count.
//
// Protocol invariants:
//
//   * A unit is executed under a lease; the lease is released (unlinked)
//     only after the done marker exists. A crash at any point leaves
//     either a done marker (unit durable, never recomputed) or a lease
//     that stops heartbeating and is eventually *broken* by the
//     coordinator, after which the unit is reassigned. Reassignment can
//     duplicate a record (the crash window between fsync'd append and
//     marker, or a broken lease whose original holder was merely slow) —
//     never lose one.
//   * The merge walks every shard journal and feeds records through
//     SweepAssembler, which validates shapes against the grid and
//     deduplicates (first record per unit wins, in sorted-shard order).
//     Unit results are deterministic functions of (config, instances,
//     unit), so duplicates are bit-identical and dedup order is
//     immaterial; the assembler then aggregates in unit order, making the
//     merged SweepResult bit-identical to run_sweep_durable's.
//   * Lease staleness is judged by *content change* on a monotonic clock
//     (no cross-process clock comparison): a lease whose content has not
//     changed for lease_seconds × 2^(steals) is expired — the exponential
//     window is the back-off that keeps a repeatedly-stolen unit from
//     thrashing. Expiry SIGKILLs the holder when it is still a live child
//     (it is wedged; a drain request cannot reach it) and unlinks the
//     lease.
//   * Worker crashes (any exit other than 0/kResumableExitCode) are
//     respawned with a fresh worker id under an exponential back-off,
//     bounded by max_respawns; when the budget is exhausted the remaining
//     workers finish what they can and the merge returns an incomplete,
//     resumable result.
//
// Drain: the coordinator propagates a drain request to workers with
// SIGUSR1 (common/shutdown.h soft channel — a terminal Ctrl-C already
// delivered SIGINT to the whole process group, and a second counted signal
// would hard-exit a worker mid-unit). Workers stop claiming units, finish
// and journal the one in flight, and exit kResumableExitCode; re-running
// with resume=true picks up exactly where the fabric left off.
//
// Fault injection: the QFAB_FAULT directives (common/fault.h) all work
// inside workers, which inherit the environment wholesale; fault-worker=W
// gates the spec to one worker id, and hang-after-unit / lease-steal
// exercise the lease-expiry and duplicate-record paths specifically.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace qfab {

/// Coordinator knobs for run_sweep_fabric.
struct FabricOptions {
  /// Fabric directory (created if missing). Protocol state and shard
  /// journals live here; re-running with resume=true continues from it.
  std::string dir;
  /// Worker processes to spawn (>= 1).
  int workers = 1;
  /// Keep existing done markers and shard journals (their fingerprint must
  /// match); false wipes the directory's protocol state first.
  bool resume = false;
  /// Base lease-staleness window: a lease whose content is unchanged for
  /// lease_seconds × 2^(times stolen) is expired and reassigned. Heartbeats
  /// renew at lease_seconds / 4, so a healthy-but-slow worker is never
  /// expired while its heartbeat thread lives.
  double lease_seconds = 5.0;
  /// Respawn budget for crashed workers (total across the run).
  int max_respawns = 3;
  /// Base delay before respawning a crashed worker; doubles per respawn.
  double respawn_backoff_seconds = 0.1;
  /// Coordinator supervision cadence.
  double poll_seconds = 0.05;
  /// Rewrite a done-unit count line on stderr as markers appear.
  bool progress = false;
  /// Spawn override for tests: must start a worker process executing
  /// run_sweep_worker(config, instances, dir, worker_id, lease_seconds)
  /// and return its pid. Default (unset) forks and runs the worker loop in
  /// the child directly.
  std::function<pid_t(int worker_id)> spawn;
};

/// One reaped worker process.
struct WorkerExit {
  int worker_id = -1;
  pid_t pid = -1;
  /// Exit status: 0 complete, kResumableExitCode drained, 128+signal for
  /// signal deaths (137 = SIGKILL, including coordinator kills of wedged
  /// holders), otherwise the worker's exit code.
  int exit_code = -1;
};

/// What the coordinator observed, for tests and operators.
struct FabricReport {
  int workers_spawned = 0;   ///< including respawns
  int respawns = 0;
  int lease_steals = 0;      ///< leases expired and broken
  int kills = 0;             ///< wedged live holders SIGKILLed
  bool drained = false;
  std::vector<WorkerExit> exits;  ///< in reap order
};

/// Worker loop: claim leases, execute units through the shared sweep
/// engine, journal to an own shard, heartbeat. Runs in the worker process
/// (installed by the coordinator's spawner); also callable directly for an
/// in-process single-worker reference. Returns 0 when every unit of the
/// sweep has a done marker, kResumableExitCode when a drain request
/// stopped it early. The config/instances must be the coordinator's exact
/// sweep (validated against MANIFEST's fingerprint).
int run_sweep_worker(const SweepConfig& config,
                     const std::vector<ArithInstance>& instances,
                     const std::string& dir, int worker_id,
                     double lease_seconds);

/// Coordinator: prepare the fabric directory, spawn `options.workers`
/// workers, supervise leases and child processes (expiry, respawn, drain
/// propagation), then merge the shard journals into a SweepResult
/// bit-identical to run_sweep_durable on the same (config, instances).
/// `report`, when non-null, receives the supervision accounting.
SweepResult run_sweep_fabric(const SweepConfig& config,
                             const std::vector<ArithInstance>& instances,
                             const FabricOptions& options,
                             FabricReport* report = nullptr);

/// One shard journal's health, as seen by inspection (no config needed).
struct FabricShardStatus {
  std::string file;  // name within shards/
  bool header_ok = false;
  bool fingerprint_ok = false;  // matches the MANIFEST fingerprint
  std::size_t records = 0;      // valid records (kTimeout markers included)
  bool dropped_tail = false;
  std::size_t dropped_bytes = 0;
  std::size_t dropped_frames = 0;
  std::string note;
};

/// One live lease file.
struct FabricLeaseStatus {
  std::string file;  // name within leases/
  std::string content;
};

/// Everything qfab_journal --fabric reports about a fabric directory.
struct FabricStatus {
  bool manifest_ok = false;
  std::uint64_t fingerprint = 0;
  std::size_t n_units = 0;
  std::size_t done_markers = 0;
  std::vector<FabricLeaseStatus> leases;
  std::vector<FabricShardStatus> shards;
};

/// Read-only inspection of a fabric directory.
FabricStatus inspect_fabric(const std::string& dir);

/// Repair outcome for repair_fabric.
struct FabricRepair {
  std::size_t shards_rewritten = 0;
  /// Whole record frames discarded with the damaged tails (reported, never
  /// silently dropped; the units they carried will be recomputed).
  std::size_t dropped_records = 0;
  std::size_t dropped_bytes = 0;
  std::size_t leases_cleared = 0;
};

/// Rewrite every damaged shard journal down to its valid prefix and clear
/// all lease files (only safe with no fabric running on the directory).
FabricRepair repair_fabric(const std::string& dir);

}  // namespace qfab
