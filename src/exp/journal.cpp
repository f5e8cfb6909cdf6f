#include "exp/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "common/io.h"
#include "common/shutdown.h"

namespace qfab {

namespace {

constexpr char kMagic[8] = {'Q', 'F', 'A', 'B', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;
// Frames larger than this are treated as corruption, not allocation
// requests: a torn length field must never make the reader try to swallow
// gigabytes.
constexpr std::uint32_t kMaxFrameBytes = 1u << 28;

/// Append-only byte buffer with fixed-width little-ish (host-endian)
/// primitive writers. The journal is a local checkpoint, not an
/// interchange format; host-endian memcpy keeps doubles bit-exact.
struct ByteWriter {
  std::string bytes;

  void u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.append(s);
  }
  void raw(const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  }
};

/// Bounds-checked reader over a payload. Any overrun or trailing garbage
/// marks the payload malformed; the caller treats that as frame corruption.
struct ByteReader {
  const char* p;
  const char* end;
  bool ok = true;

  explicit ByteReader(const std::string& payload)
      : p(payload.data()), end(payload.data() + payload.size()) {}

  template <typename T>
  T get() {
    T v{};
    if (ok && end - p >= static_cast<std::ptrdiff_t>(sizeof(T))) {
      std::memcpy(&v, p, sizeof(T));
      p += sizeof(T);
    } else {
      ok = false;
    }
    return v;
  }
  std::string str() {
    const auto n = get<std::uint32_t>();
    if (!ok || end - p < static_cast<std::ptrdiff_t>(n)) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    return s;
  }
  bool done() const { return ok && p == end; }
};

void write_stats(ByteWriter& w, const SharedEstimateStats& s) {
  w.i64(s.proposal_trajectories);
  w.i64(s.unique_trajectories);
  w.i64(s.fallback_trajectories);
  w.i64(s.rate_columns);
  w.i64(s.fallback_columns);
  w.f64(s.ess_fraction_min);
  w.f64(s.ess_fraction_sum);
  w.i64(s.ess_fraction_count);
}

SharedEstimateStats read_stats(ByteReader& r) {
  SharedEstimateStats s;
  s.proposal_trajectories = static_cast<long>(r.get<std::int64_t>());
  s.unique_trajectories = static_cast<long>(r.get<std::int64_t>());
  s.fallback_trajectories = static_cast<long>(r.get<std::int64_t>());
  s.rate_columns = static_cast<long>(r.get<std::int64_t>());
  s.fallback_columns = static_cast<long>(r.get<std::int64_t>());
  s.ess_fraction_min = r.get<double>();
  s.ess_fraction_sum = r.get<double>();
  s.ess_fraction_count = static_cast<long>(r.get<std::int64_t>());
  return s;
}

std::string serialize_record(const JournalRecord& rec) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(rec.type));
  w.u32(rec.depth_index);
  w.u32(rec.block_begin);
  w.u32(rec.block_end);
  if (rec.type == JournalRecord::Type::kTimeout) return std::move(w.bytes);
  w.u32(static_cast<std::uint32_t>(rec.outcomes.size()));
  for (const auto& rate : rec.outcomes) {
    QFAB_CHECK(rate.size() == rec.block_end - rec.block_begin);
    for (const InstanceOutcome& o : rate) {
      w.u8(o.success ? 1 : 0);
      w.i64(o.margin);
    }
  }
  write_stats(w, rec.stats);
  w.str(rec.error);
  return std::move(w.bytes);
}

/// Returns false when the payload is malformed (treated as corruption).
bool parse_record(const std::string& payload, JournalRecord& rec) {
  ByteReader r(payload);
  const auto type = r.get<std::uint8_t>();
  if (type < 1 || type > 3) return false;
  rec.type = static_cast<JournalRecord::Type>(type);
  rec.depth_index = r.get<std::uint32_t>();
  rec.block_begin = r.get<std::uint32_t>();
  rec.block_end = r.get<std::uint32_t>();
  if (!r.ok || rec.block_end <= rec.block_begin) return false;
  if (rec.type == JournalRecord::Type::kTimeout) return r.done();
  const auto n_rates = r.get<std::uint32_t>();
  const std::size_t members = rec.block_end - rec.block_begin;
  // Each outcome is 9 payload bytes; refuse to allocate more outcome slots
  // than the remaining payload can actually hold (overflow-safe order).
  const std::size_t remaining = static_cast<std::size_t>(r.end - r.p);
  if (!r.ok || members > remaining / 9 ||
      n_rates > remaining / 9 / members)
    return false;
  rec.outcomes.assign(n_rates, std::vector<InstanceOutcome>(members));
  for (auto& rate : rec.outcomes)
    for (InstanceOutcome& o : rate) {
      o.success = r.get<std::uint8_t>() != 0;
      o.margin = r.get<std::int64_t>();
    }
  rec.stats = read_stats(r);
  rec.error = r.str();
  return r.done();
}

std::string serialize_header(std::uint64_t fingerprint) {
  ByteWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u64(fingerprint);
  return std::move(w.bytes);
}

std::string frame(const std::string& payload, bool corrupt_crc = false) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = crc32(payload.data(), payload.size());
  if (corrupt_crc) crc ^= 0xDEADBEEFu;
  w.u32(crc);
  w.bytes.append(payload);
  return std::move(w.bytes);
}

void write_all_fd(int fd, const char* data, std::size_t size,
                  const std::string& path) {
  QFAB_CHECK_MSG(write_all(fd, data, size), "journal write to "
                                                << path << " failed: "
                                                << std::strerror(errno));
}

/// FNV-1a over a growing byte stream — the fingerprint accumulator.
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void b(bool v) { u64(v ? 1 : 0); }
};

}  // namespace

JournalRecord unit_record(const SweepGrid::UnitKey& key, UnitResult&& out) {
  JournalRecord rec;
  rec.type = out.poisoned ? JournalRecord::Type::kPoisoned
                          : JournalRecord::Type::kUnit;
  rec.depth_index = static_cast<std::uint32_t>(key.depth_index);
  rec.block_begin = static_cast<std::uint32_t>(key.block_begin);
  rec.block_end = static_cast<std::uint32_t>(key.block_end);
  rec.outcomes = std::move(out.outcomes);
  rec.stats = out.stats;
  rec.error = std::move(out.error);
  return rec;
}

std::uint64_t sweep_fingerprint(const SweepConfig& config,
                                const std::vector<ArithInstance>& instances) {
  Fingerprint fp;
  fp.u64(kVersion);
  // Circuit spec.
  const CircuitSpec& s = config.base;
  fp.i64(static_cast<std::int64_t>(s.op));
  fp.i64(s.n);
  fp.i64(s.depth);
  fp.i64(s.add_depth);
  fp.i64(s.max_rotation_order);
  fp.b(s.fused_multiplier);
  fp.b(s.measure_all);
  // Depth series and rate columns (expanded: the journal's rate axis).
  fp.u64(config.depths.size());
  for (int d : config.depths) fp.i64(d);
  const std::vector<double> rates = config.expanded_rates();
  fp.u64(rates.size());
  for (double r : rates) fp.f64(r);
  fp.b(config.vary_2q);
  fp.b(config.include_noise_free);
  fp.i64(config.orders.order_x);
  fp.i64(config.orders.order_y);
  // Run options — batch_lanes included: it fixes the unit block size, so
  // records from a run with different lanes would not even key the same.
  const RunOptions& run = config.run;
  fp.u64(run.shots);
  fp.i64(run.error_trajectories);
  fp.b(run.per_shot);
  fp.u64(run.checkpoint_interval);
  fp.b(run.noisy_rz);
  fp.b(run.noisy_id);
  fp.i64(run.batch_lanes);
  fp.b(run.shared_trajectories);
  fp.f64(run.shared_min_ess);
  // Replay precision changes outcomes within rounding, so records from a
  // float32 (or auto) run must not resume a double journal or vice versa.
  fp.i64(static_cast<std::int64_t>(run.precision));
  fp.f64(run.float_drift_budget);
  // Retired health-check toggle (the sentinels are always on); the slot
  // stays so journals and fabric directories of earlier runs still resume.
  fp.b(true);
  fp.f64(run.readout.p01);
  fp.f64(run.readout.p10);
  fp.u64(config.seed);
  // Operand instances: outcomes depend on the exact superposed values and
  // amplitudes, not just the generation seed.
  fp.u64(instances.size());
  for (const ArithInstance& inst : instances)
    for (const QInt* q : {&inst.x, &inst.y}) {
      fp.i64(q->bits());
      fp.u64(q->terms().size());
      for (const QInt::Term& t : q->terms()) {
        fp.u64(t.value);
        fp.f64(t.amplitude.real());
        fp.f64(t.amplitude.imag());
      }
    }
  return fp.h;
}

JournalContents read_journal(const std::string& path) {
  JournalContents out;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    out.note = "no journal at " + path;
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  std::size_t pos = 0;
  bool saw_header = false;
  while (pos + 8 <= data.size()) {
    std::uint32_t len = 0, crc = 0;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (len > kMaxFrameBytes || pos + 8 + len > data.size()) {
      out.note = "truncated frame at byte " + std::to_string(pos);
      break;
    }
    const std::string payload = data.substr(pos + 8, len);
    if (crc32(payload.data(), payload.size()) != crc) {
      out.note = "CRC mismatch at byte " + std::to_string(pos);
      break;
    }
    if (!saw_header) {
      if (payload.size() != sizeof(kMagic) + 4 + 8 ||
          std::memcmp(payload.data(), kMagic, sizeof kMagic) != 0) {
        out.note = "unrecognized journal header";
        break;
      }
      std::uint32_t version = 0;
      std::memcpy(&version, payload.data() + sizeof kMagic, 4);
      if (version != kVersion) {
        out.note = "journal version " + std::to_string(version) +
                   " != " + std::to_string(kVersion);
        break;
      }
      std::memcpy(&out.fingerprint, payload.data() + sizeof kMagic + 4, 8);
      saw_header = true;
      out.header_ok = true;
    } else {
      JournalRecord rec;
      if (!parse_record(payload, rec)) {
        out.note = "malformed record at byte " + std::to_string(pos);
        break;
      }
      out.records.push_back(std::move(rec));
    }
    pos += 8 + len;
    out.valid_bytes = pos;
  }
  if (out.valid_bytes < data.size()) {
    out.dropped_tail = true;
    out.dropped_bytes = data.size() - out.valid_bytes;
    // Census of the dropped tail: walk frame-by-frame from the damage point
    // following each frame's claimed length, so repair can say how many
    // record frames a truncation discards instead of dropping them
    // silently. The payloads are untrusted (that is why they are dropped);
    // only the frame count is reported.
    std::size_t scan = out.valid_bytes;
    while (scan + 8 <= data.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, data.data() + scan, 4);
      if (len > kMaxFrameBytes || scan + 8 + len > data.size()) break;
      ++out.dropped_frames;
      scan += 8 + len;
    }
    out.dropped_partial_frame = scan != data.size();
    if (out.note.empty())
      out.note = "trailing garbage at byte " + std::to_string(out.valid_bytes);
    out.note += " — dropped " + std::to_string(out.dropped_bytes) +
                " trailing byte(s): " + std::to_string(out.dropped_frames) +
                " stranded frame(s)";
    if (out.dropped_partial_frame) out.note += " plus a torn partial frame";
  }
  if (!out.header_ok) out.records.clear();
  return out;
}

void rewrite_journal(const std::string& path,
                     const JournalContents& contents) {
  QFAB_CHECK(contents.header_ok);
  std::string data = frame(serialize_header(contents.fingerprint));
  for (const JournalRecord& rec : contents.records)
    data += frame(serialize_record(rec));
  atomic_write_file(path, data);
}

JournalWriter::JournalWriter(const std::string& path,
                             std::uint64_t fingerprint, bool fresh)
    : path_(path) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (fresh ? O_TRUNC : 0);
  if (!fresh) {
    // Appends land after whatever the file currently ends with, so a
    // damaged tail must be rewound (rewrite_journal) before appending —
    // records appended behind garbage would be unreachable to every
    // reader. Fingerprint and header are re-validated for the same reason:
    // this writer's records must parse in sequence with the prefix.
    const JournalContents contents = read_journal(path);
    QFAB_CHECK_MSG(contents.header_ok,
                   "journal " << path
                              << " has no valid header; cannot append ("
                              << contents.note << ")");
    QFAB_CHECK_MSG(contents.fingerprint == fingerprint,
                   "journal " << path
                              << " belongs to a different sweep configuration"
                                 " (fingerprint mismatch); cannot append");
    QFAB_CHECK_MSG(!contents.dropped_tail,
                   "journal " << path << " has a damaged tail ("
                              << contents.note
                              << "); rewrite the valid prefix before "
                                 "appending (qfab_journal --repair)");
  }
  fd_ = ::open(path.c_str(), flags, 0644);
  QFAB_CHECK_MSG(fd_ >= 0, "cannot open journal " << path << ": "
                                                  << std::strerror(errno));
  if (fresh) {
    const std::string header = frame(serialize_header(fingerprint));
    write_all_fd(fd_, header.data(), header.size(), path_);
    QFAB_CHECK_MSG(fsync_fd(fd_), "fsync of journal " << path_ << " failed");
    // Without a durable directory entry, power loss can drop a new journal
    // with all its fsync'd records. Once per journal, not per record: the
    // fabric's unsynced done markers lean on it (marker => record).
    fsync_parent_dir(path_);
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalRecord& record) {
  const std::string framed = frame(serialize_record(record));
  const std::lock_guard<std::mutex> lock(mu_);
  const bool counts_as_unit = record.type != JournalRecord::Type::kTimeout;
  const long unit = counts_as_unit ? units_appended_ + 1 : -1;

  if (counts_as_unit && unit == fault::torn_write_unit()) {
    // Simulated crash mid-write: persist only a prefix of the frame.
    write_all_fd(fd_, framed.data(), framed.size() / 2, path_);
    (void)fsync_fd(fd_);
    fault::crash_now("torn-write");
  }
  if (counts_as_unit && unit == fault::corrupt_crc_unit()) {
    const std::string bad = frame(serialize_record(record), true);
    write_all_fd(fd_, bad.data(), bad.size(), path_);
    (void)fsync_fd(fd_);
    fault::crash_now("corrupt-crc");
  }

  write_all_fd(fd_, framed.data(), framed.size(), path_);
  QFAB_CHECK_MSG(fsync_fd(fd_), "fsync of journal " << path_ << " failed");
  if (!counts_as_unit) return;
  units_appended_ = unit;
  if (unit == fault::crash_after_unit()) fault::crash_now("crash-after-unit");
  if (unit == fault::drain_after_unit()) request_shutdown();
}

}  // namespace qfab
