#include "exp/fabric.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/shutdown.h"
#include "common/stopwatch.h"
#include "exp/journal.h"

namespace qfab {

namespace {

using Clock = std::chrono::steady_clock;

std::string unit_name(std::size_t u) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%06zu", u);
  return buf;
}

std::string leases_dir(const std::string& dir) { return dir + "/leases"; }
std::string units_dir(const std::string& dir) { return dir + "/units"; }
std::string shards_dir(const std::string& dir) { return dir + "/shards"; }
std::string manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}
std::string lease_path(const std::string& dir, std::size_t u) {
  return leases_dir(dir) + "/" + unit_name(u) + ".lease";
}
std::string done_path(const std::string& dir, std::size_t u) {
  return units_dir(dir) + "/" + unit_name(u) + ".done";
}
std::string shard_path(const std::string& dir, int worker_id) {
  return shards_dir(dir) + "/shard_" + std::to_string(worker_id) +
         ".journal";
}
std::string report_path(const std::string& dir, int worker_id) {
  return shards_dir(dir) + "/shard_" + std::to_string(worker_id) + ".report";
}

/// mkdir -p: create every missing prefix of `path`.
void mkdirs(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0)
      QFAB_CHECK_MSG(errno == EEXIST, "cannot create directory "
                                          << prefix << ": "
                                          << std::strerror(errno));
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sorted names of the entries in `path` that end in `suffix` (empty when
/// the directory is missing). Protocol files are matched by exact suffix:
/// a `<name>.tmp.<pid>` that a crash left mid-rename is not one of them.
std::vector<std::string> list_dir(const std::string& path,
                                  const std::string& suffix) {
  std::vector<std::string> names;
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != ".." && ends_with(name, suffix))
      names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

void wipe_dir_files(const std::string& path) {
  for (const std::string& name : list_dir(path, ""))
    (void)::unlink((path + "/" + name).c_str());
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Whole-file read; empty string when the file is missing or vanishes
/// mid-read (callers treat both as "no content").
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string manifest_text(std::uint64_t fingerprint, const SweepGrid& grid) {
  std::ostringstream out;
  out << "QFABFAB1\n"
      << "fingerprint=" << fingerprint << '\n'
      << "units=" << grid.n_units << '\n'
      << "depths=" << grid.n_depths << '\n'
      << "rates=" << grid.n_rates << '\n'
      << "instances=" << grid.n_instances << '\n'
      << "block=" << grid.block << '\n';
  return out.str();
}

/// Parse "key=<number>\n" out of a manifest body; 0 when absent.
std::uint64_t manifest_field(const std::string& text, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = text.find(needle);
  while (pos != std::string::npos && pos != 0 && text[pos - 1] != '\n')
    pos = text.find(needle, pos + 1);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

std::string worker_identity(int worker_id) {
  char host[256] = "?";
  (void)::gethostname(host, sizeof(host) - 1);
  std::ostringstream out;
  out << "pid=" << ::getpid() << " worker=" << worker_id << " host=" << host;
  return out.str();
}

pid_t lease_holder_pid(const std::string& content) {
  long pid = -1;
  if (std::sscanf(content.c_str(), "pid=%ld", &pid) != 1) return -1;
  return static_cast<pid_t>(pid);
}

/// Claim `path` exclusively (O_CREAT|O_EXCL). False when another worker
/// holds it. Not fsync'd: every coordinator start wipes leases/, so a
/// lease only ever coordinates live processes.
bool try_acquire_lease(const std::string& path, const std::string& identity) {
  return create_file_exclusive(path, identity + " beat=0\n");
}

/// Renews the held lease on a background thread so a healthy worker is
/// never expired mid-unit, no matter how slow the unit is. Renewal first
/// re-reads the lease and verifies it still names this worker — if the
/// coordinator broke the lease (and another worker may have re-acquired
/// it), renewing would clobber the new holder's claim, so the heartbeat
/// marks the lease lost and stops instead. (The read-then-replace window
/// is a benign race: the worst outcome is one stale renewal of a lease the
/// coordinator already decided to break, which delays reassignment by one
/// expiry window, never corrupts results.)
class Heartbeat {
 public:
  explicit Heartbeat(double interval_seconds)
      : interval_(interval_seconds) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Heartbeat() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void hold(const std::string& path, const std::string& identity) {
    const std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
    identity_ = identity;
    beat_ = 0;
    active_ = true;
    lost_ = false;
  }
  /// Stop renewing but keep the bookkeeping (lease-steal injection).
  void pause() {
    const std::lock_guard<std::mutex> lock(mu_);
    active_ = false;
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mu_);
    active_ = false;
    path_.clear();
  }
  bool lost() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lost_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock,
                   std::chrono::duration<double>(interval_),
                   [this] { return stop_; });
      if (stop_ || !active_) continue;
      const std::string path = path_;
      const std::string identity = identity_;
      const long beat = ++beat_;
      lock.unlock();
      const bool renewed = renew(path, identity, beat);
      lock.lock();
      if (!renewed && path == path_ && active_) {
        lost_ = true;
        active_ = false;
      }
    }
  }

  static bool renew(const std::string& path, const std::string& identity,
                    long beat) {
    try {
      if (!starts_with(read_file(path), identity)) return false;
      replace_file(path, identity + " beat=" + std::to_string(beat) + "\n");
      return true;
    } catch (...) {
      return false;  // treat any renewal failure as a lost lease
    }
  }

  const double interval_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::string path_;
  std::string identity_;
  long beat_ = 0;
  bool active_ = false;
  bool lost_ = false;
  bool stop_ = false;
};

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

int decode_wait_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

int run_sweep_worker(const SweepConfig& config,
                     const std::vector<ArithInstance>& instances,
                     const std::string& dir, int worker_id,
                     double lease_seconds) {
  install_soft_drain_handler();
  // A forked fleet inherits QFAB_FAULT wholesale; the fault-worker gate
  // restricts the spec to one member so a test can crash exactly one
  // worker (and its replacement, which gets a fresh id, runs clean).
  if (fault::fault_worker() >= 0 && fault::fault_worker() != worker_id)
    fault::set_fault_spec_for_tests("");

  const std::uint64_t fp = sweep_fingerprint(config, instances);
  const std::string manifest = read_file(manifest_path(dir));
  QFAB_CHECK_MSG(starts_with(manifest, "QFABFAB1"),
                 "fabric directory " << dir << " has no manifest");
  QFAB_CHECK_MSG(manifest_field(manifest, "fingerprint") == fp,
                 "fabric directory "
                     << dir
                     << " belongs to a different sweep configuration "
                        "(fingerprint mismatch); refusing to join");

  SweepExecution exec(config, instances);
  const SweepGrid& grid = exec.grid();
  JournalWriter shard(shard_path(dir, worker_id), fp, /*fresh=*/true);
  const std::string identity = worker_identity(worker_id);
  Heartbeat heart(std::max(0.02, lease_seconds / 4.0));

  long journaled = 0;
  long retried = 0;
  const auto write_report = [&](bool drained) {
    std::ostringstream out;
    out << "units=" << journaled << " retried=" << retried
        << " drained=" << (drained ? 1 : 0) << '\n';
    try {
      replace_file(report_path(dir, worker_id), out.str());
    } catch (...) {
      // The report is advisory; a failed write must not kill the worker.
    }
  };
  write_report(false);

  const auto all_units_done = [&] {
    for (std::size_t u = 0; u < grid.n_units; ++u)
      if (!file_exists(done_path(dir, u))) return false;
    return true;
  };

  bool complete = false;
  while (true) {
    if (shutdown_requested()) {
      complete = all_units_done();
      break;
    }
    // Claim scan, offset per worker so the fleet fans out over the grid
    // instead of contending on unit 0.
    std::size_t claimed = SweepGrid::npos;
    bool any_pending = false;
    const std::size_t offset =
        grid.n_units ? static_cast<std::size_t>(worker_id) % grid.n_units
                     : 0;
    for (std::size_t k = 0; k < grid.n_units; ++k) {
      const std::size_t u = (k + offset) % grid.n_units;
      if (file_exists(done_path(dir, u))) continue;
      any_pending = true;
      if (try_acquire_lease(lease_path(dir, u), identity)) {
        claimed = u;
        break;
      }
    }
    if (!any_pending) {
      complete = true;
      break;
    }
    if (claimed == SweepGrid::npos) {
      // Every pending unit is leased elsewhere; wait for done markers to
      // appear or for the coordinator to break a stale lease. A unit takes
      // milliseconds, so a coarser poll leaves the fleet's tail idle.
      sleep_seconds(0.001);
      continue;
    }
    if (file_exists(done_path(dir, claimed))) {
      // Lost the race: the marker landed between our scan and acquire.
      (void)::unlink(lease_path(dir, claimed).c_str());
      continue;
    }
    heart.hold(lease_path(dir, claimed), identity);

    if (fault::hang_after_unit() >= 0 &&
        journaled == fault::hang_after_unit()) {
      // Wedge forever while holding the lease, heartbeat stopped: the
      // coordinator must expire the lease, SIGKILL this process, and
      // reassign the unit.
      heart.pause();
      std::fprintf(stderr,
                   "\nQFAB_FAULT: worker %d wedging on unit %zu "
                   "(hang-after-unit)\n",
                   worker_id, claimed);
      std::fflush(stderr);
      for (;;) sleep_seconds(0.05);
    }
    bool injected_steal = false;
    if (fault::lease_steal_unit() >= 0 &&
        journaled + 1 == fault::lease_steal_unit()) {
      // Simulate the broken-lease race: stop heartbeating, journal the
      // unit but skip its done marker and lease release, and let the
      // coordinator expire the (now stale) lease. The reassigned worker
      // recomputes the unit, so the merge sees a genuine duplicate record
      // it must deduplicate.
      heart.pause();
      std::fprintf(stderr,
                   "\nQFAB_FAULT: worker %d letting the lease of unit %zu "
                   "expire (lease-steal)\n",
                   worker_id, claimed);
      std::fflush(stderr);
      injected_steal = true;
    }

    UnitResult out = exec.run_unit(claimed);
    if (out.retried) ++retried;
    // The unit's one fsync; crash faults fire in here.
    shard.append(unit_record(grid.key(claimed), std::move(out)));
    ++journaled;
    // Marker only after the fsync'd append: marker => durable record. The
    // marker itself needs no fsync: losing it only costs a recompute,
    // whose duplicate record the merge drops. (A marker that already
    // exists came from a worker whose lease was broken; it stands.) The
    // injected-steal path skips it (and the unlink — the lease is not ours
    // anymore) so the reassigned worker reliably recomputes the unit and
    // the merge sees a genuine duplicate.
    if (!injected_steal) {
      (void)create_file_exclusive(done_path(dir, claimed), identity + "\n");
      heart.release();
      if (!heart.lost() &&
          starts_with(read_file(lease_path(dir, claimed)), identity))
        (void)::unlink(lease_path(dir, claimed).c_str());
    } else {
      // The record is durable; now park until the coordinator breaks the
      // stale lease (possibly SIGKILLing this process — the duplicate is
      // already on disk either way) so the reassignment happens before
      // this worker claims anything else.
      while (starts_with(read_file(lease_path(dir, claimed)), identity))
        sleep_seconds(0.02);
      heart.release();
    }
    write_report(false);
  }

  write_report(!complete);
  return complete ? 0 : kResumableExitCode;
}

SweepResult run_sweep_fabric(const SweepConfig& config,
                             const std::vector<ArithInstance>& instances,
                             const FabricOptions& options,
                             FabricReport* report) {
  QFAB_CHECK(options.workers >= 1);
  QFAB_CHECK(!options.dir.empty());
  Stopwatch watch;
  FabricReport local_report;
  FabricReport& rep = report ? *report : local_report;
  rep = FabricReport{};

  const std::uint64_t fp = sweep_fingerprint(config, instances);
  const SweepGrid grid(config, instances.size());

  mkdirs(options.dir);
  mkdirs(leases_dir(options.dir));
  mkdirs(units_dir(options.dir));
  mkdirs(shards_dir(options.dir));

  const std::string manifest = read_file(manifest_path(options.dir));
  if (options.resume && starts_with(manifest, "QFABFAB1")) {
    QFAB_CHECK_MSG(manifest_field(manifest, "fingerprint") == fp,
                   "fabric directory "
                       << options.dir
                       << " was written by a different sweep configuration "
                          "(fingerprint mismatch); refusing to resume");
  }
  if (!options.resume) {
    wipe_dir_files(units_dir(options.dir));
    wipe_dir_files(shards_dir(options.dir));
  }
  // No worker is running yet, so every lease on disk is stale by
  // definition (a previous coordinator's crash or kill).
  wipe_dir_files(leases_dir(options.dir));
  atomic_write_file(manifest_path(options.dir), manifest_text(fp, grid));

  std::size_t restored = 0;
  if (options.resume)
    restored = list_dir(units_dir(options.dir), ".done").size();

  // Worker ids start above every existing shard index: a resumed or
  // respawned worker must never truncate a predecessor's durable records.
  int next_id = 0;
  for (const std::string& name :
       list_dir(shards_dir(options.dir), ".journal")) {
    int id = -1;
    if (std::sscanf(name.c_str(), "shard_%d.journal", &id) == 1)
      next_id = std::max(next_id, id + 1);
  }

  struct Child {
    pid_t pid = -1;
    int worker_id = -1;
    bool live = true;
  };
  std::vector<Child> children;

  // Precomputed for the forked child: divide the host's threads across the
  // fleet unless the caller already pinned QFAB_THREADS.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string threads_share = std::to_string(
      std::max(1u, hw / static_cast<unsigned>(options.workers)));
  const bool threads_pinned = std::getenv("QFAB_THREADS") != nullptr;

  const auto spawn_worker = [&](int worker_id) {
    pid_t pid = -1;
    if (options.spawn) {
      pid = options.spawn(worker_id);
    } else {
      pid = ::fork();
      QFAB_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
      if (pid == 0) {
        if (!threads_pinned)
          (void)::setenv("QFAB_THREADS", threads_share.c_str(), 1);
        int code = 1;
        try {
          code = run_sweep_worker(config, instances, options.dir, worker_id,
                                  options.lease_seconds);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[qfab-fabric] worker %d failed: %s\n",
                       worker_id, e.what());
        }
        std::_Exit(code);
      }
    }
    children.push_back(Child{pid, worker_id, true});
    ++rep.workers_spawned;
  };

  for (int k = 0; k < options.workers; ++k) spawn_worker(next_id++);

  struct LeaseTrack {
    std::string content;
    Clock::time_point changed;
  };
  std::map<std::string, LeaseTrack> tracks;
  std::map<std::string, int> steals_by_lease;
  std::vector<Clock::time_point> pending_respawns;
  bool drain_propagated = false;
  std::size_t last_progress = static_cast<std::size_t>(-1);

  const auto live_count = [&] {
    std::size_t n = 0;
    for (const Child& c : children)
      if (c.live) ++n;
    return n;
  };

  while (live_count() > 0 || !pending_respawns.empty()) {
    // Reap exited workers.
    int status = 0;
    pid_t pid;
    while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
      const int code = decode_wait_status(status);
      for (Child& c : children) {
        if (c.pid != pid || !c.live) continue;
        c.live = false;
        rep.exits.push_back(WorkerExit{c.worker_id, pid, code});
        if (code != 0 && code != kResumableExitCode) {
          if (!shutdown_requested() && rep.respawns < options.max_respawns) {
            const double delay = options.respawn_backoff_seconds *
                                 static_cast<double>(1 << rep.respawns);
            std::fprintf(stderr,
                         "[qfab-fabric] worker %d (pid %ld) exited with "
                         "code %d; respawning in %.2fs\n",
                         c.worker_id, static_cast<long>(pid), code, delay);
            pending_respawns.push_back(
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(delay)));
          } else {
            std::fprintf(stderr,
                         "[qfab-fabric] worker %d (pid %ld) exited with "
                         "code %d; respawn budget exhausted — remaining "
                         "workers will finish what they can\n",
                         c.worker_id, static_cast<long>(pid), code);
          }
        }
        break;
      }
    }

    // Fire due respawns (cancelled by a drain: no point restarting work
    // we are about to stop).
    if (shutdown_requested()) {
      pending_respawns.clear();
    } else {
      const Clock::time_point now = Clock::now();
      for (auto it = pending_respawns.begin();
           it != pending_respawns.end();) {
        if (*it <= now) {
          ++rep.respawns;
          spawn_worker(next_id++);
          it = pending_respawns.erase(it);
        } else {
          ++it;
        }
      }
    }

    // Propagate a drain once, via the soft channel (never a counted
    // signal: a terminal Ctrl-C already reached the whole process group).
    if (shutdown_requested() && !drain_propagated) {
      drain_propagated = true;
      for (const Child& c : children)
        if (c.live) (void)::kill(c.pid, SIGUSR1);
    }

    // Lease supervision: expire leases whose content stopped changing.
    const std::vector<std::string> lease_files =
        list_dir(leases_dir(options.dir), ".lease");
    for (auto it = tracks.begin(); it != tracks.end();) {
      if (std::find(lease_files.begin(), lease_files.end(), it->first) ==
          lease_files.end())
        it = tracks.erase(it);
      else
        ++it;
    }
    const Clock::time_point now = Clock::now();
    for (const std::string& name : lease_files) {
      const std::string path = leases_dir(options.dir) + "/" + name;
      const std::string content = read_file(path);
      auto [it, fresh] = tracks.try_emplace(name);
      if (fresh || it->second.content != content) {
        it->second.content = content;
        it->second.changed = now;
        continue;
      }
      const int steals = steals_by_lease[name];
      const double window =
          options.lease_seconds *
          static_cast<double>(1 << std::min(steals, 10));
      const double idle =
          std::chrono::duration<double>(now - it->second.changed).count();
      if (idle <= window) continue;
      // Expired: kill the holder if it is a live child (it is wedged — a
      // drain request cannot reach it), break the lease, and let the
      // surviving workers reacquire the unit.
      const pid_t holder = lease_holder_pid(content);
      for (Child& c : children) {
        if (!c.live || c.pid != holder) continue;
        std::fprintf(stderr,
                     "[qfab-fabric] lease %s stale for %.1fs; killing "
                     "wedged worker %d (pid %ld)\n",
                     name.c_str(), idle, c.worker_id,
                     static_cast<long>(holder));
        (void)::kill(holder, SIGKILL);
        ++rep.kills;
        break;
      }
      std::fprintf(stderr, "[qfab-fabric] breaking stale lease %s\n",
                   name.c_str());
      (void)::unlink(path.c_str());
      tracks.erase(name);
      steals_by_lease[name] = steals + 1;
      ++rep.lease_steals;
    }

    if (options.progress) {
      const std::size_t done =
          list_dir(units_dir(options.dir), ".done").size();
      if (done != last_progress) {
        last_progress = done;
        std::fprintf(stderr, "\r[qfab-fabric] %zu/%zu units done    ", done,
                     grid.n_units);
        std::fflush(stderr);
      }
    }
    sleep_seconds(options.poll_seconds);
  }
  if (options.progress) std::fprintf(stderr, "\n");

  // Merge: every shard journal, sorted, first record per unit wins. Unit
  // results are deterministic, so duplicates (crash windows, broken
  // leases) are bit-identical and the dedup order cannot matter; the
  // assembler then aggregates in unit order, matching run_sweep_durable
  // bit for bit.
  SweepAssembler assembler(config, grid);
  std::size_t duplicates = 0;
  for (const std::string& name :
       list_dir(shards_dir(options.dir), ".journal")) {
    const std::string path = shards_dir(options.dir) + "/" + name;
    const JournalContents contents = read_journal(path);
    if (!contents.header_ok) {
      std::fprintf(stderr, "[qfab-fabric] skipping unreadable shard %s\n",
                   name.c_str());
      continue;
    }
    if (contents.fingerprint != fp) {
      std::fprintf(stderr,
                   "[qfab-fabric] skipping shard %s (fingerprint "
                   "mismatch)\n",
                   name.c_str());
      continue;
    }
    if (contents.dropped_tail)
      std::fprintf(stderr, "[qfab-fabric] shard %s: %s\n", name.c_str(),
                   contents.note.c_str());
    for (const JournalRecord& rec : contents.records) {
      if (rec.type == JournalRecord::Type::kTimeout) continue;
      const std::string err =
          rec.type == JournalRecord::Type::kPoisoned ? rec.error : "";
      const SweepAssembler::Add added =
          assembler.add_record(rec.depth_index, rec.block_begin,
                               rec.block_end, rec.outcomes, rec.stats, err);
      if (added == SweepAssembler::Add::kDuplicate) ++duplicates;
      if (added == SweepAssembler::Add::kMisfit)
        std::fprintf(stderr,
                     "[qfab-fabric] shard %s: skipped a record that does "
                     "not fit the sweep grid\n",
                     name.c_str());
    }
  }
  if (duplicates > 0)
    std::fprintf(stderr,
                 "[qfab-fabric] merge deduplicated %zu record(s) "
                 "(reassigned or re-journaled units)\n",
                 duplicates);

  std::size_t retried = 0;
  for (const std::string& name :
       list_dir(shards_dir(options.dir), ".report")) {
    std::size_t units = 0, r = 0;
    int drained = 0;
    const std::string content =
        read_file(shards_dir(options.dir) + "/" + name);
    if (std::sscanf(content.c_str(), "units=%zu retried=%zu drained=%d",
                    &units, &r, &drained) >= 2)
      retried += r;
  }

  rep.drained = shutdown_requested();
  return assembler.finish(watch.seconds(), restored, retried);
}

FabricStatus inspect_fabric(const std::string& dir) {
  FabricStatus status;
  const std::string manifest = read_file(manifest_path(dir));
  status.manifest_ok = starts_with(manifest, "QFABFAB1");
  if (status.manifest_ok) {
    status.fingerprint = manifest_field(manifest, "fingerprint");
    status.n_units =
        static_cast<std::size_t>(manifest_field(manifest, "units"));
  }
  status.done_markers = list_dir(units_dir(dir), ".done").size();
  for (const std::string& name : list_dir(leases_dir(dir), ".lease")) {
    FabricLeaseStatus lease;
    lease.file = name;
    std::string content = read_file(leases_dir(dir) + "/" + name);
    while (!content.empty() && content.back() == '\n') content.pop_back();
    lease.content = content;
    status.leases.push_back(std::move(lease));
  }
  for (const std::string& name : list_dir(shards_dir(dir), ".journal")) {
    const JournalContents contents =
        read_journal(shards_dir(dir) + "/" + name);
    FabricShardStatus shard;
    shard.file = name;
    shard.header_ok = contents.header_ok;
    shard.fingerprint_ok =
        contents.header_ok && contents.fingerprint == status.fingerprint;
    shard.records = contents.records.size();
    shard.dropped_tail = contents.dropped_tail;
    shard.dropped_bytes = contents.dropped_bytes;
    shard.dropped_frames = contents.dropped_frames;
    shard.note = contents.note;
    status.shards.push_back(std::move(shard));
  }
  return status;
}

FabricRepair repair_fabric(const std::string& dir) {
  FabricRepair repair;
  for (const std::string& name : list_dir(shards_dir(dir), ".journal")) {
    const std::string path = shards_dir(dir) + "/" + name;
    const JournalContents contents = read_journal(path);
    if (!contents.header_ok || !contents.dropped_tail) continue;
    rewrite_journal(path, contents);
    ++repair.shards_rewritten;
    repair.dropped_records += contents.dropped_frames;
    repair.dropped_bytes += contents.dropped_bytes;
  }
  for (const std::string& name : list_dir(leases_dir(dir), ".lease")) {
    if (::unlink((leases_dir(dir) + "/" + name).c_str()) == 0)
      ++repair.leases_cleared;
  }
  return repair;
}

}  // namespace qfab
