#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/observability.hpp"
#include "runtime/scheduler.hpp"

/// Performance-aware scheduler — the substrate of the paper's DP-Perf
/// strategy (the OmpSs "versioning" scheduler of Planas et al. [20]).
///
/// For each (kernel, device) pair the scheduler keeps an estimate of the
/// device's task-instance throughput, seeded by a profiling phase (the paper
/// gives each device 3 task instances) and refined with an exponential
/// moving average as instances complete. A ready task is pushed to the
/// device with the earliest estimated finish time, accounting for work
/// already queued on each lane.
///
/// By default the estimate is built from observed *task occupancy* — the
/// dispatch-to-completion latency including transfer waits, which is what a
/// runtime scheduler can actually measure. An ablation knob switches to
/// compute-only estimates (transfers invisible), which exaggerates the
/// paper's observation that DP-Perf "overestimates the GPU capability" on
/// transfer-heavy kernels; even with occupancy-based estimates the greedy
/// earliest-finish placement over a short task stream overshoots the
/// optimal GPU share (it commits to the fast device until its backlog
/// exceeds one CPU-lane instance), reproducing Section IV-B1.
///
/// Probe-and-forgive: after a divergence drain benches a device, every
/// `kProbeEvery` completions elsewhere the scheduler asks the executor for
/// one probe chunk to the benched device. When that chunk completes, the
/// poisoned (kernel, device) estimate is dropped and re-seeded from the
/// fresh observation — so a *transient* slowdown costs a few probes, and
/// once the perturbation ends the device wins its work share back instead
/// of starving forever (the ROADMAP's 10x-degradation item).
namespace hetsched::rt {

class PerfAwareScheduler final : public Scheduler {
 public:
  /// Virtual time one placement decision costs.
  static constexpr SimTime kDecisionCost = 5 * kMicrosecond;
  /// Weight of the newest observation in the throughput estimates.
  static constexpr double kEmaAlpha = 0.5;
  /// A task stays on its data's device when that device's estimated finish
  /// is at most (1 + kLocalityMargin) times the best one.
  static constexpr double kLocalityMargin = 1.0;
  /// Completions elsewhere between probe chunks to a benched device.
  static constexpr int kProbeEvery = 4;

  explicit PerfAwareScheduler(bool compute_only_estimates = false)
      : compute_only_estimates_(compute_only_estimates) {}

  std::string name() const override { return "perf-aware"; }
  SimTime decision_cost() const override { return kDecisionCost; }

  /// Seeds the (kernel, device) throughput estimate, in items/second of one
  /// lane — the output of the profiling phase. Strategies measure this by
  /// running a few small instances per device and reading the observed
  /// execution times (see strategies/dp_perf).
  void seed_estimate(KernelId kernel, hw::DeviceId device,
                     double items_per_second) {
    HS_REQUIRE(items_per_second > 0.0,
               "seed_estimate rate " << items_per_second);
    estimate(kernel, device).add(items_per_second);
  }

  bool has_estimate(KernelId kernel, hw::DeviceId device) const {
    auto it = estimates_.find({kernel, device});
    return it != estimates_.end() && it->second.has_value();
  }

  void begin_run(const hw::PlatformSpec& platform,
                 const std::vector<KernelDef>& kernels) override {
    lane_available_.clear();
    for (const hw::DeviceSpec& device : platform.all_devices())
      lane_available_.emplace_back(device.lanes, 0);
    const std::size_t n = platform.all_devices().size();
    dead_.assign(n, false);
    diverged_.assign(n, false);
    probe_outstanding_.assign(n, false);
    completions_since_probe_.assign(n, 0);
    round_robin_ = 0;
    device_names_.clear();
    for (const hw::DeviceSpec& device : platform.all_devices())
      device_names_.push_back(device.name);
    kernel_names_.clear();
    for (const KernelDef& kernel : kernels) kernel_names_.push_back(kernel.name);
    ema_keys_.clear();
  }

  std::optional<hw::DeviceId> on_ready(const SchedTask& task,
                                       SimTime now) override {
    std::optional<hw::DeviceId> best;
    SimTime best_finish = 0;
    bool missing_estimate = false;
    std::vector<obs::PlacementEstimate> compared;

    for (hw::DeviceId d = 0; d < lane_available_.size(); ++d) {
      if (dead_[d] || !task.runs_on(d)) continue;
      if (!has_estimate(task.kernel, d)) {
        missing_estimate = true;
        continue;
      }
      const SimTime finish = estimated_finish(task, d, now);
      if (obs_)
        compared.push_back({device_name(d), to_millis(finish),
                            estimated_rate(task.kernel, d)});
      if (!best || finish < best_finish) {
        best = d;
        best_finish = finish;
      }
    }

    // Online profiling fallback: while some runnable device has no estimate
    // yet, explore devices round-robin so each learns its speed (the paper's
    // "each device gets 3 task instances" phase, when no offline profiling
    // seeded the estimates).
    if (missing_estimate) {
      for (std::size_t step = 0; step < lane_available_.size(); ++step) {
        const hw::DeviceId d = (round_robin_ + step) % lane_available_.size();
        if (!dead_[d] && task.runs_on(d) && !has_estimate(task.kernel, d)) {
          round_robin_ = d + 1;
          record_placement(task, d, "explore", now, std::move(compared));
          commit(task, d, now);
          return d;
        }
      }
    }

    // Every surviving device lacks support: decline and let the task sit in
    // the pool (with fault injection, a device the task runs on may be dead).
    if (!best) return std::nullopt;

    // Locality-aware tie-breaking: the estimates cannot see the transfers a
    // cross-device placement incurs, so when the task's data already lives
    // on some device and that device's estimated finish is within the
    // margin of the best, keep the chain local (the versioning scheduler's
    // affinity heuristic).
    bool locality_won = false;
    if (task.locality && *task.locality != *best &&
        !dead_[*task.locality] && task.runs_on(*task.locality) &&
        has_estimate(task.kernel, *task.locality)) {
      const SimTime local_finish =
          estimated_finish(task, *task.locality, now);
      if (static_cast<double>(local_finish) <=
          (1.0 + kLocalityMargin) * static_cast<double>(best_finish)) {
        best = *task.locality;
        locality_won = true;
      }
    }

    record_placement(task, *best, locality_won ? "locality" : "earliest-finish",
                     now, std::move(compared));
    commit(task, *best, now);
    return best;
  }

  void on_device_failed(hw::DeviceId device, SimTime now) override {
    (void)now;
    if (device < dead_.size()) {
      dead_[device] = true;
      diverged_[device] = false;
      probe_outstanding_[device] = false;
    }
  }

  void on_divergence(hw::DeviceId device, SimTime busy_until,
                     SimTime now) override {
    (void)now;
    // The device is slower than the estimates believed: sync the committed
    // backlog with what its lanes actually have left, so earliest-finish
    // placement routes the re-offered work elsewhere until the EMA catches
    // up with the perturbed speed.
    if (device >= lane_available_.size()) return;
    for (SimTime& t : lane_available_[device]) t = std::max(t, busy_until);
    // Bench the device; probes start once enough completions land elsewhere.
    diverged_[device] = true;
    completions_since_probe_[device] = 0;
  }

  void on_complete(const SchedTask& task, hw::DeviceId device,
                   SimTime compute_time, SimTime occupancy_time,
                   SimTime now) override {
    if (task.items <= 0) return;
    const SimTime observed =
        compute_only_estimates_ ? compute_time : occupancy_time;
    const double seconds = to_seconds(std::max<SimTime>(observed, 1));
    const double rate = static_cast<double>(task.items) / seconds;
    Ema& ema = estimate(task.kernel, device);
    if (device < diverged_.size() && diverged_[device]) {
      // Forgive: drop the poisoned history and re-seed from this fresh
      // observation; also re-sync the backlog picture (the divergence drain
      // emptied the device's queue, so its lanes are free from here on).
      // If the device is still perturbed, the executor's divergence check
      // on this same completion benches it again.
      ema.reset();
      ema.add(rate);
      for (SimTime& t : lane_available_[device]) t = std::min(t, now);
      diverged_[device] = false;
      probe_outstanding_[device] = false;
      if (obs_) obs_->metrics.counter_add("ema_reseeds", 1);
    } else {
      ema.add(rate);
    }
    // Completions elsewhere advance each benched device toward its next
    // probe.
    for (hw::DeviceId d = 0; d < diverged_.size(); ++d)
      if (d != device && diverged_[d]) ++completions_since_probe_[d];
    if (obs_)
      obs_->metrics.track_set(ema_key(task.kernel, device), now, ema.value());
  }

  std::optional<hw::DeviceId> probe_request(SimTime now) override {
    (void)now;
    for (hw::DeviceId d = 0; d < diverged_.size(); ++d) {
      if (diverged_[d] && !dead_[d] && !probe_outstanding_[d] &&
          completions_since_probe_[d] >= kProbeEvery)
        return d;
    }
    return std::nullopt;
  }

  void on_probe_dispatched(hw::DeviceId device, SimTime now) override {
    (void)now;
    if (device >= probe_outstanding_.size()) return;
    probe_outstanding_[device] = true;
    completions_since_probe_[device] = 0;
  }

  void on_flush(const SchedTask& task, hw::DeviceId device, SimTime duration,
                SimTime now) override {
    (void)now;
    if (task.items <= 0 || compute_only_estimates_) return;
    // The synchronization bill: flushing this instance's output cost
    // `duration` of link time. Learned per item and added to future
    // duration estimates for the device.
    auto [it, inserted] = flush_penalty_.try_emplace(
        std::make_pair(task.kernel, device), Ema{kEmaAlpha});
    it->second.add(to_seconds(duration) / static_cast<double>(task.items));
  }

  /// Estimated lane-rate (items/s) for a pair; 0 when unknown.
  double estimated_rate(KernelId kernel, hw::DeviceId device) const {
    auto it = estimates_.find({kernel, device});
    return it == estimates_.end() || !it->second.has_value()
               ? 0.0
               : it->second.value();
  }

 private:
  Ema& estimate(KernelId kernel, hw::DeviceId device) {
    auto [it, inserted] =
        estimates_.try_emplace({kernel, device}, Ema{kEmaAlpha});
    return it->second;
  }

  const std::string& device_name(hw::DeviceId device) const {
    static const std::string unknown = "?";
    return device < device_names_.size() ? device_names_[device] : unknown;
  }

  const std::string& kernel_name(KernelId kernel) const {
    static const std::string unknown = "?";
    return kernel < kernel_names_.size() ? kernel_names_[kernel] : unknown;
  }

  const std::string& ema_key(KernelId kernel, hw::DeviceId device) {
    auto [it, inserted] = ema_keys_.try_emplace({kernel, device});
    if (inserted) {
      it->second =
          obs::metric_key("ema_items_per_s", {{"kernel", kernel_name(kernel)},
                                              {"device", device_name(device)}});
    }
    return it->second;
  }

  void record_placement(const SchedTask& task, hw::DeviceId chosen,
                        const char* reason, SimTime now,
                        std::vector<obs::PlacementEstimate> compared) {
    if (obs_ == nullptr) return;
    obs::PlacementRecord record;
    record.task = task.id;
    record.kernel = kernel_name(task.kernel);
    record.device = device_name(chosen);
    record.reason = reason;
    record.time = now;
    record.estimates = std::move(compared);
    obs_->audit.add(std::move(record));
  }

  SimTime estimated_duration(const SchedTask& task, hw::DeviceId d) const {
    const double rate = estimated_rate(task.kernel, d);
    HS_ASSERT_MSG(rate > 0.0, "estimated_duration without an estimate");
    double seconds = static_cast<double>(task.items) / rate;
    auto it = flush_penalty_.find({task.kernel, d});
    if (it != flush_penalty_.end() && it->second.has_value())
      seconds += static_cast<double>(task.items) * it->second.value();
    return from_seconds(seconds);
  }

  SimTime estimated_finish(const SchedTask& task, hw::DeviceId d,
                           SimTime now) const {
    SimTime earliest = lane_available_[d][0];
    for (SimTime t : lane_available_[d]) earliest = std::min(earliest, t);
    return std::max(now, earliest) + estimated_duration(task, d);
  }

  void commit(const SchedTask& task, hw::DeviceId d, SimTime now) {
    auto& lanes = lane_available_[d];
    std::size_t slot = 0;
    for (std::size_t i = 1; i < lanes.size(); ++i)
      if (lanes[i] < lanes[slot]) slot = i;
    const SimTime start = std::max(now, lanes[slot]);
    const SimTime duration = has_estimate(task.kernel, d)
                                 ? estimated_duration(task, d)
                                 : 0;  // exploring: no basis for a duration
    lanes[slot] = start + duration;
  }

  bool compute_only_estimates_;
  std::map<std::pair<KernelId, hw::DeviceId>, Ema> estimates_;
  std::map<std::pair<KernelId, hw::DeviceId>, Ema> flush_penalty_;
  std::vector<std::vector<SimTime>> lane_available_;
  std::vector<bool> dead_;
  std::size_t round_robin_ = 0;

  /// Probe-and-forgive state (all reset in begin_run).
  std::vector<bool> diverged_;
  std::vector<bool> probe_outstanding_;
  std::vector<int> completions_since_probe_;

  /// Observability label caches.
  std::vector<std::string> device_names_;
  std::vector<std::string> kernel_names_;
  std::map<std::pair<KernelId, hw::DeviceId>, std::string> ema_keys_;
};

}  // namespace hetsched::rt
