// Checkpoint journal for durable sweeps.
//
// A paper-scale sweep (≥200 instances × 2048 shots per point, six panels)
// is hours of batch work; run_sweep alone is all-or-nothing. The journal
// makes it restartable: one record per completed *work unit* — an
// (instance-block, depth) pair covering every error-rate column at once,
// because the shared-trajectory estimator computes a whole rate cluster
// from one trajectory set and its bookkeeping is per-cluster, not per-rate
// — appended and fsync'd as units finish. A resumed run skips journaled
// units, replays nothing, and (thanks to the deterministic per-point RNG
// streams, exp/sweep.cpp point_rng) reconstructs a SweepResult bit-
// identical to an uninterrupted run.
//
// On-disk format (host-endian, not an interchange format):
//
//   frame   := u32 payload_len | u32 crc32(payload) | payload
//   file    := header_frame record_frame*
//   header  := "QFABJNL1" | u32 version | u64 fingerprint
//   record  := u8 type | u32 depth_index | u32 block_begin | u32 block_end
//              | type-specific body
//
// The fingerprint hashes everything the outcomes depend on — circuit spec,
// depth series, expanded rate columns, operand orders and values, RunOptions,
// and the sweep seed — so a journal can never be resumed against a
// different configuration and silently mix results.
//
// Robustness contract: appends are fsync'd per record, so a crash leaves at
// most one torn/corrupt trailing record. read_journal validates frames
// sequentially and *drops* everything from the first bad frame on
// (drop-and-rewind — a damaged tail must never abort a resume); the
// resuming writer first rewrites the valid prefix via atomic tmp + fsync +
// rename (common/io.h) so the file on disk is whole again before new
// records are appended.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace qfab {

/// One journaled work unit: instance block [block_begin, block_end) at
/// depth index depth_index, all rate columns.
struct JournalRecord {
  enum class Type : std::uint8_t {
    kUnit = 1,      ///< completed unit: outcomes for every rate column
    kTimeout = 2,   ///< soft-deadline marker (unit still pending; a later
                    ///< kUnit record for the same key supersedes it)
    kPoisoned = 3,  ///< unit completed with a persistent numerical-health
                    ///< failure: outcomes recorded (failed members default
                    ///< to success=false), error describes the sentinel
  };

  Type type = Type::kUnit;
  std::uint32_t depth_index = 0;
  std::uint32_t block_begin = 0;
  std::uint32_t block_end = 0;
  /// outcomes[rate][member]; rate order = SweepConfig::expanded_rates(),
  /// member i = instance block_begin + i. Empty for kTimeout.
  std::vector<std::vector<InstanceOutcome>> outcomes;
  /// This unit's shared-trajectory bookkeeping contribution.
  SharedEstimateStats stats;
  /// kPoisoned: human-readable sentinel failure description.
  std::string error;
};

/// The record both sweep writers journal for computed unit `key`: kPoisoned
/// when a member failed its retry, else kUnit. Takes over `out`'s outcomes
/// and error rather than copying them; a writer that still needs the
/// outcomes reads them from the record.
JournalRecord unit_record(const SweepGrid::UnitKey& key, UnitResult&& out);

/// Everything read_journal could recover from a journal file.
struct JournalContents {
  /// Header frame parsed and magic/version matched. False for a missing,
  /// empty, or unrecognizable file (records is then empty).
  bool header_ok = false;
  std::uint64_t fingerprint = 0;
  std::vector<JournalRecord> records;
  /// Byte length of the valid prefix (frames up to the first damaged one).
  std::size_t valid_bytes = 0;
  /// True when trailing bytes after the valid prefix were dropped
  /// (torn write, CRC mismatch, or truncated frame).
  bool dropped_tail = false;
  /// Best-effort census of the dropped tail, so repair can report what a
  /// truncation costs instead of discarding silently: whole frames stranded
  /// past the first damaged one (counted by following each frame's claimed
  /// length; their payloads may or may not be recoverable) and whether a
  /// torn partial frame ends the file.
  std::size_t dropped_bytes = 0;
  std::size_t dropped_frames = 0;
  bool dropped_partial_frame = false;
  /// Human-readable description of what was dropped, for logs.
  std::string note;
};

/// Hash of everything a sweep's outcomes depend on (see file comment).
std::uint64_t sweep_fingerprint(const SweepConfig& config,
                                const std::vector<ArithInstance>& instances);

/// Parse `path`. Never throws for damaged contents — damage is reported via
/// header_ok / dropped_tail; only unreadable-but-existing files throw.
/// A missing file yields header_ok=false with an explanatory note.
JournalContents read_journal(const std::string& path);

/// Rewrite `path` to exactly its records' canonical serialization via
/// atomic tmp + fsync + rename. Used on resume after read_journal dropped a
/// damaged tail, and by the repair tool.
void rewrite_journal(const std::string& path, const JournalContents& contents);

/// Append-only, fsync-per-record journal writer. Thread-safe (the sweep's
/// workers journal units as they finish). Honors the QFAB_FAULT
/// crash/torn-write/corrupt-crc/drain directives (common/fault.h) at unit
/// granularity: kTimeout markers do not advance the fault unit counter.
class JournalWriter {
 public:
  /// `fresh` truncates (or creates) the file and writes a new header,
  /// fsyncing it and then the directory (the file's one directory fsync);
  /// otherwise the file must already hold a valid header for `fingerprint`
  /// and new records are appended after its current end. A non-fresh open
  /// re-validates the file and *refuses* (CheckError) when a damaged tail
  /// is present: appending after a torn-tail rewind would strand the new
  /// records behind garbage, so the valid prefix must be rewritten
  /// (rewrite_journal / qfab_journal --repair) before appends resume.
  JournalWriter(const std::string& path, std::uint64_t fingerprint,
                bool fresh);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Serialize, append, fsync. Throws CheckError on I/O failure.
  void append(const JournalRecord& record);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::mutex mu_;
  long units_appended_ = 0;  // kUnit/kPoisoned records, for fault ordinals
};

}  // namespace qfab
