#include "noise/estimator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "common/parallel.h"

namespace qfab {

namespace {

std::atomic<long> g_precision_fallbacks{0};
std::atomic<long> g_groups_helped{0};

/// Per-thread replay scratch: the batched state vectors (one per replay
/// precision), the scalar trajectory state, and the marginal accumulation
/// buffers that every estimate would otherwise allocate per replay group.
struct ReplayWorkspace {
  StateVector sv{1};
  BatchedStateVector bsv{1, 1};
  BatchedStateVectorF bsf{1, 1};           // float32 replay tier
  std::vector<std::vector<double>> margs;  // per-lane group marginals
  std::vector<double> acc;                 // lane-minor accumulation plane
  std::vector<double> marg;                // scalar-path marginal
  std::vector<double> lane_sums;           // per-lane marginal sums (norm²)
};

ReplayWorkspace& replay_workspace() {
  thread_local ReplayWorkspace ws;
  return ws;
}

/// Replay one trajectory group at the requested precision and leave the
/// per-lane output marginals in ws.margs. `seed` is a generic callback
/// that loads the group's start states into a batched vector of either
/// precision (broadcast of one ideal state, or a lane-permuted checkpoint
/// load).
///
/// Float32 groups run the drift sentinel afterwards: every lane's norm² is
/// the sum of its marginal, so a lane that drifted from 1 beyond the
/// budget (or went non-finite) is detected without an extra pass. A
/// tripped sentinel re-replays the whole group in double — bit-for-bit the
/// double path for these trajectories — and bumps the process-wide
/// fallback counter. Surviving float32 marginals are normalized per lane:
/// the residual drift is pure replay rounding, and normalizing keeps every
/// downstream simplex invariant at double tolerances.
template <typename Seed>
void replay_group_marginals(const FusedPlan& plan, std::size_t g0,
                            const std::vector<std::vector<ErrorEvent>>& events,
                            const std::vector<int>& output_qubits,
                            Precision precision, double drift_budget,
                            ReplayWorkspace& ws, Seed&& seed) {
  if (precision == Precision::kFloat32) {
    seed(ws.bsf);
    run_trajectories_batched(plan, ws.bsf, g0, events);
    ws.bsf.all_lane_marginal_probabilities(output_qubits, ws.margs, ws.acc);
    // One pass over the marginal planes serves both the sentinel and the
    // normalization: each lane's sum is computed once, checked against the
    // drift budget, and reused as the normalizer.
    ws.lane_sums.resize(ws.margs.size());
    bool ok = true;
    for (std::size_t l = 0; l < ws.margs.size(); ++l) {
      double s = 0.0;
      for (double v : ws.margs[l]) s += v;
      ws.lane_sums[l] = s;
      if (!(std::abs(s - 1.0) <= drift_budget)) {  // catches NaN too
        ok = false;
        break;
      }
    }
    if (ok) {
      for (std::size_t l = 0; l < ws.margs.size(); ++l) {
        const double inv = 1.0 / ws.lane_sums[l];
        for (double& v : ws.margs[l]) v *= inv;
      }
      return;
    }
    g_precision_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  seed(ws.bsv);
  run_trajectories_batched(plan, ws.bsv, g0, events);
  ws.bsv.all_lane_marginal_probabilities(output_qubits, ws.margs, ws.acc);
}

/// T proposal trajectories after dedup: unique (fired set, event list)
/// pairs with multiplicities. The event list alone is not a sufficient key:
/// with thermal (kWeighted) locations alongside depolarizing ones, two
/// different fired sets can emit identical event lists but carry different
/// importance weights.
struct UniqueTrajectories {
  std::vector<std::vector<ErrorEvent>> events;    // per unique
  std::vector<std::vector<std::uint32_t>> fired;  // per unique
  std::vector<int> multiplicity;                  // per unique
  int total = 0;                                  // trajectories sampled
};

std::uint64_t hash_fired(std::uint64_t h,
                         const std::vector<std::uint32_t>& fired) {
  for (std::uint32_t f : fired) {
    h ^= f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

UniqueTrajectories sample_unique_trajectories(const ErrorLocations& proposal,
                                              int T, Pcg64& rng) {
  UniqueTrajectories uniq;
  uniq.total = T;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::vector<std::uint32_t> fired;
  for (int t = 0; t < T; ++t) {
    std::vector<ErrorEvent> events = proposal.sample_at_least_one(rng, &fired);
    const std::uint64_t h = hash_fired(hash_events(events), fired);
    std::vector<std::size_t>& bucket = buckets[h];
    bool merged = false;
    for (std::size_t u : bucket) {
      if (uniq.events[u] == events && uniq.fired[u] == fired) {
        ++uniq.multiplicity[u];
        merged = true;
        break;
      }
    }
    if (!merged) {
      bucket.push_back(uniq.events.size());
      uniq.events.push_back(std::move(events));
      uniq.fired.push_back(fired);
      uniq.multiplicity.push_back(1);
    }
  }
  return uniq;
}

/// Self-normalized importance weights of the unique trajectories for one
/// target rate. `delta_log_odds[i]` = target log-odds − proposal log-odds
/// of location i; log w_u = Σ_{i ∈ fired_u} delta. Returned weights sum to
/// 1 over uniques (multiplicity folded in); `ess` is in trajectory units:
/// (Σ_t w_t)² / Σ_t w_t² over the T originals, computed from the uniques as
/// S² / Σ_u mult_u·e_u² with e_u = exp(log w_u − max) and S = Σ_u mult_u·e_u.
struct RateWeights {
  std::vector<double> w;
  double ess = 0.0;
};

RateWeights reweight(const UniqueTrajectories& uniq,
                     const std::vector<double>& delta_log_odds) {
  const std::size_t U = uniq.events.size();
  RateWeights rw;
  rw.w.resize(U);
  double max_ell = -std::numeric_limits<double>::infinity();
  for (std::size_t u = 0; u < U; ++u) {
    double ell = 0.0;
    for (std::uint32_t f : uniq.fired[u]) ell += delta_log_odds[f];
    rw.w[u] = ell;
    max_ell = std::max(max_ell, ell);
  }
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t u = 0; u < U; ++u) {
    const double e = std::exp(rw.w[u] - max_ell);
    const double m = static_cast<double>(uniq.multiplicity[u]);
    rw.w[u] = m * e;
    sum += m * e;
    sum_sq += m * e * e;
  }
  for (double& w : rw.w) w /= sum;
  rw.ess = sum * sum / sum_sq;
  return rw;
}

/// Proposal = the cluster member with the largest expected event count:
/// heavier trajectories downweight cleanly, while a light proposal starves
/// the heavy columns of multi-event trajectories.
std::size_t pick_proposal(const std::vector<ErrorLocations>& rate_errors) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < rate_errors.size(); ++r)
    if (rate_errors[r].expected_events() >
        rate_errors[best].expected_events())
      best = r;
  return best;
}

/// Per-location log-odds deltas from `proposal` to each rate (the
/// proposal's own row is all zeros, so its weights are uniform).
std::vector<std::vector<double>> delta_log_odds_per_rate(
    const std::vector<ErrorLocations>& rate_errors, std::size_t proposal) {
  const ErrorLocations& prop = rate_errors[proposal];
  std::vector<std::vector<double>> deltas(rate_errors.size());
  for (std::size_t r = 0; r < rate_errors.size(); ++r) {
    deltas[r].resize(prop.location_count());
    for (std::size_t i = 0; i < prop.location_count(); ++i)
      deltas[r][i] =
          rate_errors[r].location_log_odds(i) - prop.location_log_odds(i);
  }
  return deltas;
}

void note_ess(SharedEstimateStats* stats, double ess_fraction) {
  if (!stats) return;
  stats->ess_fraction_min = std::min(stats->ess_fraction_min, ess_fraction);
  stats->ess_fraction_sum += ess_fraction;
  ++stats->ess_fraction_count;
}

/// Blend one rate column: w0·ideal + (1−w0)·Σ_u w_u·marg(u).
template <typename Marg>
std::vector<double> blend_weighted(const std::vector<double>& ideal, double w0,
                                   const RateWeights& rw, Marg&& marg) {
  std::vector<double> out(ideal.size());
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = w0 * ideal[b];
  const double err_w = 1.0 - w0;
  for (std::size_t u = 0; u < rw.w.size(); ++u) {
    const double wu = err_w * rw.w[u];
    const std::vector<double>& m = marg(u);
    for (std::size_t b = 0; b < out.size(); ++b) out[b] += wu * m[b];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Batched estimators: plan / execute / finish.
//
// Planning (sampling, dedup, importance weights, the ESS guard and fallback
// sampling) needs no amplitudes, so every estimate first queues its replay
// groups on a ReplaySchedule. The schedule then runs all of its groups in
// order of the boundary they resume from, against a stored BatchedCleanRun
// or a forward-only BatchedCleanPass, and the estimates finish from the
// marginals it produced. A group's arithmetic depends only on its start
// state and events, so both sources give bit-identical results, whichever
// thread replays each group.

/// One trajectory to queue: the clean-run lane it starts from, its first
/// error site, and its event list.
struct QueuedTrajectory {
  std::size_t site;
  int member;
  const std::vector<ErrorEvent>* events;
};

/// How a group's start states are loaded.
enum class GroupLoad {
  kPermuted,  // lane j from member lane_map[j], batched (pooled estimators)
  kLane,      // one member loaded on the scalar path and broadcast (the
              // single-lane stratified estimator)
};

/// One replay group: up to kMaxLanes trajectories resumed together at g0.
struct ReplayGroup {
  std::size_t g0 = 0;
  GroupLoad load = GroupLoad::kPermuted;
  std::vector<int> lane_map;
  std::vector<std::vector<ErrorEvent>> events;  // per lane
  std::size_t slot = 0;  // marginal slot of lane 0; lanes are consecutive
  Precision precision = Precision::kDouble;
  double drift_budget = 0.0;
};

/// A unit's replay groups fan out to pool threads only when its batched
/// state has at least this many amplitudes (2^qubits × lanes). Measured on
/// one unit with three idle workers (DESIGN.md §7): at 2^17 amplitudes and
/// up, fanning out won every round by 2.5× or more; at 2^11 to 2^15 the
/// result swung between a small loss and 2.9×. Smaller units also come
/// many at a time, which leaves no thread idle to help.
constexpr std::size_t kFanOutFloor = std::size_t{1} << 16;

/// Hands one forward BatchedCleanPass to the replay groups of a unit
/// running on several threads. Group t of the boundary order takes ticket
/// t, and only the holder of the next ticket touches the pass: if its
/// boundary lies ahead, it advances the pass once no earlier group still
/// reads the current boundary. It then counts itself a reader and passes
/// the ticket on, so the loads of one boundary run concurrently and the
/// replays overlap freely. Waiters block; they do not spin. A group that
/// throws calls fail(), and every waiter bails out.
class PassTickets {
 public:
  explicit PassTickets(BatchedCleanPass& pass) : pass_(pass) {}

  /// Wait for ticket t, bring the pass to boundary k and register a
  /// reader. Returns false, registering nothing, once a group has failed.
  bool take(std::size_t t, std::size_t k) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] {
      return failed_ ||
             (next_ == t && (pass_.position() == k || readers_ == 0));
    });
    if (failed_) return false;
    // An advance runs under the lock: no group reads the pass then, and
    // every later group waits for this ticket anyway.
    pass_.advance_to(k);
    ++readers_;
    ++next_;
    lock.unlock();
    cv_.notify_all();
    return true;
  }

  /// A registered reader no longer reads the pass.
  void release() {
    {
      std::lock_guard lock(mu_);
      --readers_;
    }
    cv_.notify_all();
  }

  void fail() {
    {
      std::lock_guard lock(mu_);
      failed_ = true;
    }
    cv_.notify_all();
  }

 private:
  BatchedCleanPass& pass_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t next_ = 0;     // the ticket that may use the pass next
  std::size_t readers_ = 0;  // groups still reading the current boundary
  bool failed_ = false;
};

/// The replay groups of one or more planned estimates and the per-lane
/// output marginals they produce.
class ReplaySchedule {
 public:
  /// Stratify `pool` by first-error site (stable) and cut it into groups of
  /// `width` consecutive trajectories, whichever members they came from:
  /// a group shares almost all of its ideal prefix, so resuming it at its
  /// earliest site (+1, as scalar run_trajectory does) wastes little
  /// replay and its injection sites cluster into few fused ops. Returns
  /// each trajectory's marginal slot, aligned with `pool`.
  std::vector<std::size_t> add(const std::vector<QueuedTrajectory>& pool,
                               std::size_t width, GroupLoad load,
                               Precision precision, double drift_budget) {
    QFAB_CHECK(width >= 1 &&
               width <= static_cast<std::size_t>(BatchedStateVector::kMaxLanes));
    std::vector<std::size_t> order(pool.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pool[a].site < pool[b].site;
                     });
    std::vector<std::size_t> slots(pool.size());
    for (std::size_t lo = 0; lo < order.size(); lo += width) {
      const std::size_t lanes = std::min(width, order.size() - lo);
      ReplayGroup g;
      g.g0 = pool[order[lo]].site + 1;
      g.load = load;
      g.slot = marginals_;
      g.precision = precision;
      g.drift_budget = drift_budget;
      for (std::size_t j = 0; j < lanes; ++j) {
        const QueuedTrajectory& traj = pool[order[lo + j]];
        g.lane_map.push_back(traj.member);
        g.events.push_back(*traj.events);
        slots[order[lo + j]] = g.slot + j;
      }
      marginals_ += lanes;
      groups_.push_back(std::move(g));
    }
    return slots;
  }

  /// Replay every group against the stored run on the calling thread, in
  /// stable order of the boundary it resumes from.
  void run(const BatchedCleanRun& clean,
           const std::vector<int>& output_qubits) {
    margs_.resize(marginals_);
    ReplayWorkspace& ws = replay_workspace();
    for (const Queued& q : in_boundary_order(clean))
      replay(clean, groups_[q.group], output_qubits, ws, [] {});
  }

  /// Replay every group as the forward `pass` reaches its boundary. Idle
  /// pool threads take groups too, handing the pass on by PassTickets;
  /// below kFanOutFloor the whole schedule is one grain, which the calling
  /// thread runs in order.
  void run(BatchedCleanPass& pass, const std::vector<int>& output_qubits) {
    const std::vector<Queued> order = in_boundary_order(pass);
    margs_.resize(marginals_);
    const std::size_t amplitudes =
        (std::size_t{1} << pass.plan().circuit().num_qubits()) *
        static_cast<std::size_t>(pass.lanes());
    const std::size_t grain = amplitudes < kFanOutFloor ? order.size() : 1;
    PassTickets tickets(pass);
    const std::thread::id owner = std::this_thread::get_id();
    // Chunk size 1: the cursor hands out groups in boundary order, which
    // is the ticket order, so a claimed group waits only on earlier ones.
    parallel_for_chunked(
        0, order.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            try {
              if (!tickets.take(t, order[t].boundary)) return;
              bool reading = true;
              replay(pass, groups_[order[t].group], output_qubits,
                     replay_workspace(), [&] {
                       if (reading) tickets.release();
                       reading = false;
                     });
            } catch (...) {
              tickets.fail();
              throw;
            }
            if (std::this_thread::get_id() != owner)
              g_groups_helped.fetch_add(1, std::memory_order_relaxed);
          }
        },
        1, grain);
  }

  const std::vector<double>& marginal(std::size_t slot) const {
    return margs_[slot];
  }

 private:
  struct Queued {
    std::size_t boundary;  // clean.checkpoint_before(g0) of the group
    std::size_t group;
  };

  template <typename Source>
  std::vector<Queued> in_boundary_order(const Source& clean) const {
    std::vector<Queued> order(groups_.size());
    for (std::size_t i = 0; i < groups_.size(); ++i)
      order[i] = Queued{clean.checkpoint_before(groups_[i].g0), i};
    std::stable_sort(order.begin(), order.end(),
                     [](const Queued& a, const Queued& b) {
                       return a.boundary < b.boundary;
                     });
    return order;
  }

  /// Replay group g from `clean`, which must be at g's boundary, into its
  /// marginal slots, in workspace `ws`. `done_reading` runs once g no
  /// longer reads `clean` (it may run again): after the load, except that
  /// a float32 permuted group keeps reading until its drift check passes,
  /// because its double redo reloads from the same boundary. A kLane redo
  /// re-broadcasts ws.sv instead.
  template <typename Source, typename DoneReading>
  void replay(const Source& clean, const ReplayGroup& g,
              const std::vector<int>& output_qubits, ReplayWorkspace& ws,
              DoneReading&& done_reading) {
    const FusedPlan& plan = clean.plan();
    const int nq = plan.circuit().num_qubits();
    const int lanes = static_cast<int>(g.events.size());
    // One scalar start state per group, shared by a double redo.
    if (g.load == GroupLoad::kLane) {
      clean.lane_state_at(g.lane_map.front(), g.g0, ws.sv);
      done_reading();
    }
    replay_group_marginals(
        plan, g.g0, g.events, output_qubits, g.precision, g.drift_budget, ws,
        [&](auto& bsv) {
          if (g.load == GroupLoad::kLane) {
            bsv.reset(nq, lanes);
            bsv.broadcast(ws.sv);
            return;
          }
          clean.load_states_at(g.g0, g.lane_map, bsv);
          if constexpr (std::is_same_v<std::decay_t<decltype(bsv)>,
                                       BatchedStateVector>)
            done_reading();
        });
    done_reading();
    for (int j = 0; j < lanes; ++j)
      margs_[g.slot + static_cast<std::size_t>(j)] =
          ws.margs[static_cast<std::size_t>(j)];
  }

  std::vector<ReplayGroup> groups_;
  std::size_t marginals_ = 0;
  std::vector<std::vector<double>> margs_;
};

/// A planned per-rate stratified estimate of some lanes ("members") of a
/// batched group, each from its own stream: T trajectories conditioned on
/// at least one error, blended with the analytic clean weight w0.
struct StratifiedPlan {
  double w0 = 1.0;
  std::size_t T = 0;               // 0: the estimate is the ideal marginal
  std::vector<std::size_t> slots;  // [member index * T + t]
};

/// Plan a stratified estimate of clean-run lanes `members`: member i's
/// trajectories are pre-sampled from rngs[i] (member-major, exactly the
/// scalar estimator's stream consumption) and queued pooled across
/// members, `width` lanes per group.
StratifiedPlan plan_stratified(ReplaySchedule& schedule,
                               const ErrorLocations& errors,
                               const std::vector<int>& members, Pcg64* rngs,
                               const EstimatorOptions& options,
                               std::size_t width, GroupLoad load) {
  StratifiedPlan plan;
  plan.w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || plan.w0 >= 1.0) return plan;
  QFAB_CHECK(options.error_trajectories >= 1);
  plan.T = static_cast<std::size_t>(options.error_trajectories);
  const std::size_t n = members.size();
  std::vector<std::vector<ErrorEvent>> events(n * plan.T);
  std::vector<QueuedTrajectory> pool;
  pool.reserve(events.size());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < plan.T; ++t) {
      std::vector<ErrorEvent>& ev = events[i * plan.T + t];
      ev = errors.sample_at_least_one(rngs[i]);
      pool.push_back(
          QueuedTrajectory{ev.front().gate_index, members[i], &ev});
    }
  plan.slots = schedule.add(pool, width, load, options.precision,
                            options.float_drift_budget);
  return plan;
}

/// Member i's estimate: accumulate its marginals in the original sample
/// order (independent of the grouping) and blend.
std::vector<double> finish_stratified(const StratifiedPlan& plan,
                                      std::size_t i,
                                      const ReplaySchedule& schedule,
                                      const std::vector<double>& ideal) {
  if (plan.T == 0) return ideal;
  std::vector<double> err_mean(ideal.size(), 0.0);
  for (std::size_t t = 0; t < plan.T; ++t) {
    const std::vector<double>& m = schedule.marginal(plan.slots[i * plan.T + t]);
    for (std::size_t b = 0; b < err_mean.size(); ++b) err_mean[b] += m[b];
  }
  const double scale = (1.0 - plan.w0) / static_cast<double>(plan.T);
  std::vector<double> out(ideal.size());
  for (std::size_t b = 0; b < out.size(); ++b)
    out[b] = plan.w0 * ideal[b] + scale * err_mean[b];
  return out;
}

/// A planned shared-trajectory estimate of a rate cluster over every lane
/// of a batched group (see estimate_channel_marginals_shared).
struct SharedPlan {
  std::size_t R = 0, L = 0;
  bool single_rate = false;  // R == 1: per_rate is the whole estimate
  StratifiedPlan per_rate;
  bool ideal_only = false;   // the proposal has no noisy gate
  std::vector<double> w0;    // per rate
  std::vector<std::vector<std::size_t>> slots;  // [member][unique]
  struct Column {
    RateWeights rw;
    int fallback = -1;  // index into fallbacks, or -1: blend rw
  };
  std::vector<std::vector<Column>> columns;  // [rate][member]
  std::vector<StratifiedPlan> fallbacks;
};

SharedPlan plan_shared(ReplaySchedule& schedule, std::size_t L,
                       const std::vector<ErrorLocations>& rate_errors,
                       const SharedEstimatorOptions& options,
                       std::vector<std::vector<Pcg64>>& rngs,
                       SharedEstimateStats* stats) {
  SharedPlan plan;
  plan.L = L;
  plan.R = rate_errors.size();
  const std::size_t R = plan.R;
  QFAB_CHECK(R >= 1 && rngs.size() == R);
  for (const std::vector<Pcg64>& r : rngs) QFAB_CHECK(r.size() == L);
  QFAB_CHECK(options.error_trajectories >= 1);
  const int T = options.error_trajectories;
  const EstimatorOptions eopt{T, options.precision,
                              options.float_drift_budget};
  if (stats) stats->rate_columns += static_cast<long>(R * L);
  std::vector<int> all_members(L);
  std::iota(all_members.begin(), all_members.end(), 0);

  // Single-rate cluster: the pooled per-rate estimator outright.
  if (R == 1) {
    if (stats && rate_errors[0].noisy_gate_count() > 0) {
      stats->proposal_trajectories += static_cast<long>(L) * T;
      stats->unique_trajectories += static_cast<long>(L) * T;
    }
    plan.single_rate = true;
    plan.per_rate = plan_stratified(schedule, rate_errors[0], all_members,
                                    rngs[0].data(), eopt, L,
                                    GroupLoad::kPermuted);
    return plan;
  }

  const std::size_t p = pick_proposal(rate_errors);
  if (rate_errors[p].noisy_gate_count() == 0) {
    plan.ideal_only = true;
    return plan;
  }
  for (std::size_t r = 0; r < R; ++r)
    QFAB_CHECK_MSG(rate_errors[p].reweightable_to(rate_errors[r]),
                   "shared-trajectory cluster rates are not reweightable");

  // Member-major sampling from the proposal streams (the order the pooled
  // per-rate estimator consumes them), each member deduplicated on its own.
  std::vector<UniqueTrajectories> uniq;
  uniq.reserve(L);
  for (std::size_t m = 0; m < L; ++m)
    uniq.push_back(sample_unique_trajectories(rate_errors[p], T, rngs[p][m]));
  if (stats)
    for (const UniqueTrajectories& u : uniq) {
      stats->proposal_trajectories += u.total;
      stats->unique_trajectories += static_cast<long>(u.events.size());
    }

  // Every member's unique trajectories replay pooled, L lanes per group.
  std::vector<QueuedTrajectory> pool;
  for (std::size_t m = 0; m < L; ++m)
    for (const std::vector<ErrorEvent>& ev : uniq[m].events)
      pool.push_back(QueuedTrajectory{ev.front().gate_index,
                                      static_cast<int>(m), &ev});
  const std::vector<std::size_t> pooled_slots =
      schedule.add(pool, L, GroupLoad::kPermuted, options.precision,
                   options.float_drift_budget);
  plan.slots.resize(L);
  for (std::size_t k = 0; k < pool.size(); ++k)
    plan.slots[static_cast<std::size_t>(pool[k].member)].push_back(
        pooled_slots[k]);

  const std::vector<std::vector<double>> deltas =
      delta_log_odds_per_rate(rate_errors, p);
  const double min_ess = options.min_ess_fraction * static_cast<double>(T);
  const std::size_t fallback_lanes =
      std::min<std::size_t>(L, BatchedStateVector::kMaxLanes);
  plan.w0.resize(R);
  plan.columns.assign(R, std::vector<SharedPlan::Column>(L));
  for (std::size_t r = 0; r < R; ++r) {
    plan.w0[r] = rate_errors[r].clean_probability();
    for (std::size_t m = 0; m < L; ++m) {
      SharedPlan::Column& col = plan.columns[r][m];
      col.rw = reweight(uniq[m], deltas[r]);
      if (r != p) note_ess(stats, col.rw.ess / static_cast<double>(T));
      if (r != p && col.rw.ess < min_ess) {
        // Weight degeneracy: this column is re-estimated from its own
        // stream by exactly the single-lane per-rate estimator.
        if (stats) {
          ++stats->fallback_columns;
          stats->fallback_trajectories += T;
        }
        col.fallback = static_cast<int>(plan.fallbacks.size());
        plan.fallbacks.push_back(plan_stratified(
            schedule, rate_errors[r], {static_cast<int>(m)}, &rngs[r][m],
            eopt, fallback_lanes, GroupLoad::kLane));
      }
    }
  }
  return plan;
}

/// [rate][member] estimates of a planned cluster; ideals[m] is member m's
/// ideal output marginal.
ClusterChannels finish_shared(const SharedPlan& plan,
                              const ReplaySchedule& schedule,
                              const std::vector<std::vector<double>>& ideals) {
  if (plan.single_rate) {
    ClusterChannels out(1, std::vector<std::vector<double>>(plan.L));
    for (std::size_t m = 0; m < plan.L; ++m)
      out[0][m] = finish_stratified(plan.per_rate, m, schedule, ideals[m]);
    return out;
  }
  if (plan.ideal_only) return ClusterChannels(plan.R, ideals);
  ClusterChannels out(plan.R, std::vector<std::vector<double>>(plan.L));
  for (std::size_t r = 0; r < plan.R; ++r)
    for (std::size_t m = 0; m < plan.L; ++m) {
      const SharedPlan::Column& col = plan.columns[r][m];
      if (col.fallback >= 0) {
        out[r][m] = finish_stratified(
            plan.fallbacks[static_cast<std::size_t>(col.fallback)], 0,
            schedule, ideals[m]);
        continue;
      }
      out[r][m] = blend_weighted(ideals[m], plan.w0[r], col.rw,
                                 [&](std::size_t u) -> const std::vector<double>& {
                                   return schedule.marginal(plan.slots[m][u]);
                                 });
    }
  return out;
}

template <typename Source>
std::vector<std::vector<double>> lane_ideals(const Source& clean,
                                             const std::vector<int>& qubits) {
  std::vector<std::vector<double>> ideals(
      static_cast<std::size_t>(clean.lanes()));
  for (std::size_t m = 0; m < ideals.size(); ++m)
    ideals[m] = clean.lane_ideal_marginal(static_cast<int>(m), qubits);
  return ideals;
}

}  // namespace

long precision_fallback_count() {
  return g_precision_fallbacks.load(std::memory_order_relaxed);
}

void reset_precision_fallback_count() {
  g_precision_fallbacks.store(0, std::memory_order_relaxed);
}

long replay_groups_helped() {
  return g_groups_helped.load(std::memory_order_relaxed);
}

void reset_replay_groups_helped() {
  g_groups_helped.store(0, std::memory_order_relaxed);
}

void SharedEstimateStats::merge(const SharedEstimateStats& other) {
  proposal_trajectories += other.proposal_trajectories;
  unique_trajectories += other.unique_trajectories;
  fallback_trajectories += other.fallback_trajectories;
  rate_columns += other.rate_columns;
  fallback_columns += other.fallback_columns;
  ess_fraction_min = std::min(ess_fraction_min, other.ess_fraction_min);
  ess_fraction_sum += other.ess_fraction_sum;
  ess_fraction_count += other.ess_fraction_count;
}

std::vector<double> estimate_channel_marginal(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    Pcg64& rng) {
  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const double w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || w0 >= 1.0) return ideal;
  QFAB_CHECK(options.error_trajectories >= 1);

  ReplayWorkspace& ws = replay_workspace();
  std::vector<double> err_mean(ideal.size(), 0.0);
  for (int t = 0; t < options.error_trajectories; ++t) {
    const std::vector<ErrorEvent> events = errors.sample_at_least_one(rng);
    run_trajectory(clean, events, ws.sv);
    ws.sv.marginal_probabilities(output_qubits, ws.marg);
    for (std::size_t i = 0; i < err_mean.size(); ++i) err_mean[i] += ws.marg[i];
  }
  const double scale =
      (1.0 - w0) / static_cast<double>(options.error_trajectories);
  std::vector<double> out(ideal.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = w0 * ideal[i] + scale * err_mean[i];
  return out;
}

std::vector<double> estimate_channel_marginal_batched(
    const BatchedCleanRun& clean, int lane, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng) {
  QFAB_CHECK(max_lanes >= 1);
  ReplaySchedule schedule;
  const StratifiedPlan plan =
      plan_stratified(schedule, errors, {lane}, &rng, options,
                      static_cast<std::size_t>(max_lanes), GroupLoad::kLane);
  schedule.run(clean, output_qubits);
  return finish_stratified(plan, 0, schedule,
                           clean.lane_ideal_marginal(lane, output_qubits));
}

std::vector<std::vector<double>> estimate_channel_marginals_batched(
    const BatchedCleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    std::vector<Pcg64>& rngs) {
  const std::size_t L = static_cast<std::size_t>(clean.lanes());
  QFAB_CHECK(rngs.size() == L);
  std::vector<int> members(L);
  std::iota(members.begin(), members.end(), 0);
  ReplaySchedule schedule;
  const StratifiedPlan plan =
      plan_stratified(schedule, errors, members, rngs.data(), options, L,
                      GroupLoad::kPermuted);
  schedule.run(clean, output_qubits);
  const std::vector<std::vector<double>> ideals =
      lane_ideals(clean, output_qubits);
  std::vector<std::vector<double>> out(L);
  for (std::size_t i = 0; i < L; ++i)
    out[i] = finish_stratified(plan, i, schedule, ideals[i]);
  return out;
}

std::vector<std::vector<double>> estimate_channel_marginal_shared(
    const CleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options, std::vector<Pcg64>& rngs,
    SharedEstimateStats* stats) {
  const std::size_t R = rate_errors.size();
  QFAB_CHECK(R >= 1 && rngs.size() == R);
  QFAB_CHECK(options.error_trajectories >= 1);
  const int T = options.error_trajectories;
  const EstimatorOptions eopt{T};
  auto per_rate = [&](std::size_t r) {
    return estimate_channel_marginal(clean, rate_errors[r], output_qubits,
                                     eopt, rngs[r]);
  };
  if (stats) stats->rate_columns += static_cast<long>(R);

  // A single-rate cluster has nothing to share: delegate to the per-rate
  // estimator (exact stream-for-stream match).
  if (R == 1) {
    if (stats && rate_errors[0].noisy_gate_count() > 0) {
      stats->proposal_trajectories += T;
      stats->unique_trajectories += T;
    }
    return {per_rate(0)};
  }

  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const std::size_t p = pick_proposal(rate_errors);
  if (rate_errors[p].noisy_gate_count() == 0)
    return std::vector<std::vector<double>>(R, ideal);
  for (std::size_t r = 0; r < R; ++r)
    QFAB_CHECK_MSG(rate_errors[p].reweightable_to(rate_errors[r]),
                   "shared-trajectory cluster rates are not reweightable");

  const UniqueTrajectories uniq =
      sample_unique_trajectories(rate_errors[p], T, rngs[p]);
  const std::size_t U = uniq.events.size();
  if (stats) {
    stats->proposal_trajectories += T;
    stats->unique_trajectories += static_cast<long>(U);
  }

  // Replay each unique trajectory once.
  ReplayWorkspace& ws = replay_workspace();
  std::vector<std::vector<double>> umargs(U);
  for (std::size_t u = 0; u < U; ++u) {
    run_trajectory(clean, uniq.events[u], ws.sv);
    ws.sv.marginal_probabilities(output_qubits, umargs[u]);
  }

  const std::vector<std::vector<double>> deltas =
      delta_log_odds_per_rate(rate_errors, p);
  const double min_ess =
      options.min_ess_fraction * static_cast<double>(T);
  std::vector<std::vector<double>> out(R);
  for (std::size_t r = 0; r < R; ++r) {
    const RateWeights rw = reweight(uniq, deltas[r]);
    if (r != p) note_ess(stats, rw.ess / static_cast<double>(T));
    if (r != p && rw.ess < min_ess) {
      // Weight degeneracy: this column is re-estimated from its own
      // stream by exactly the call the per-rate path would have made.
      if (stats) {
        ++stats->fallback_columns;
        stats->fallback_trajectories += T;
      }
      out[r] = per_rate(r);
      continue;
    }
    out[r] = blend_weighted(ideal, rate_errors[r].clean_probability(), rw,
                            [&](std::size_t u) -> const std::vector<double>& {
                              return umargs[u];
                            });
  }
  return out;
}

ClusterChannels estimate_channel_marginals_shared(
    const BatchedCleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options,
    std::vector<std::vector<Pcg64>>& rngs, SharedEstimateStats* stats) {
  ReplaySchedule schedule;
  const SharedPlan plan =
      plan_shared(schedule, static_cast<std::size_t>(clean.lanes()),
                  rate_errors, options, rngs, stats);
  schedule.run(clean, output_qubits);
  return finish_shared(plan, schedule, lane_ideals(clean, output_qubits));
}

std::vector<ClusterChannels> estimate_unit_clusters(
    BatchedCleanPass& pass, const std::vector<RateCluster>& clusters,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options) {
  QFAB_CHECK_MSG(pass.position() == 0, "clean pass already advanced");
  ReplaySchedule schedule;
  std::vector<SharedPlan> plans;
  plans.reserve(clusters.size());
  for (const RateCluster& c : clusters) {
    QFAB_CHECK(c.rngs != nullptr);
    plans.push_back(plan_shared(schedule, static_cast<std::size_t>(pass.lanes()),
                                c.rate_errors, options, *c.rngs, c.stats));
  }
  schedule.run(pass, output_qubits);
  pass.finish();
  const std::vector<std::vector<double>> ideals =
      lane_ideals(pass, output_qubits);
  std::vector<ClusterChannels> out;
  out.reserve(plans.size());
  for (const SharedPlan& plan : plans)
    out.push_back(finish_shared(plan, schedule, ideals));
  return out;
}

std::vector<std::uint64_t> sample_shot_counts(
    const std::vector<double>& distribution, std::uint64_t shots,
    Pcg64& rng) {
  return multinomial(rng, shots, distribution);
}

std::vector<std::uint64_t> sample_counts_per_shot(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, std::uint64_t shots, Pcg64& rng,
    const ReadoutError& readout) {
  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const int bits = static_cast<int>(output_qubits.size());
  std::vector<std::uint64_t> counts(ideal.size(), 0);

  // Clean shots all draw from the ideal marginal: build its cumulative
  // table once and binary-search per shot. Noisy shots get a fresh
  // single-draw sampler for their own trajectory's marginal.
  const CdfSampler ideal_sampler(ideal);
  // Flip each measured bit through the confusion matrix.
  auto misread = [&rng, &readout, bits](std::size_t v) {
    if (!readout.enabled()) return v;
    for (int b = 0; b < bits; ++b) {
      const bool one = (v >> b) & 1u;
      const double flip = one ? readout.p10 : readout.p01;
      if (flip > 0.0 && rng.bernoulli(flip)) v ^= std::size_t{1} << b;
    }
    return v;
  };

  for (std::uint64_t s = 0; s < shots; ++s) {
    const std::vector<ErrorEvent> events = errors.sample(rng);
    if (events.empty()) {
      ++counts[misread(ideal_sampler.draw(rng))];
      continue;
    }
    const StateVector sv = run_trajectory(clean, events);
    const CdfSampler sampler(sv.marginal_probabilities(output_qubits));
    ++counts[misread(sampler.draw(rng))];
  }
  return counts;
}

}  // namespace qfab
