#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "hsbench.hpp"
#include "hw/platform.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sweep/scenario.hpp"

namespace hetsched::perf {

namespace {

/// Offered rates (req/s). `high` stays below ~70% of the open-loop
/// saturation rate measured on a 4-core host, so its latencies describe a
/// loaded but stable daemon.
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 3000.0;
/// Offered-rate ladder (req/s), ~1.25x apart. Open-loop saturation of the
/// default daemon on a 4-core host sits near 7,500 req/s, so the ladder
/// runs on past 8,000 to keep the crossing inside it.
const std::vector<double> kLadder = {2000, 3000, 4000,  5000, 6500,
                                     8000, 10000, 12500, 16000};
/// After the first failing rung, this many bisection steps narrow the
/// bracket around the crossing (geometric midpoints).
constexpr int kBisections = 2;
/// A ladder step fails above this client-observed p99.
constexpr double kP99LimitMs = 20.0;
/// A step whose generator ran later than this at p99 measured the client.
constexpr double kLateLimitMs = 1.0;
/// A request unanswered this long after the step's last send has failed.
constexpr double kResponseTimeoutS = 5.0;
/// One request in this many (2%) is for a key nobody asked before, which
/// must compute. A latency window is this many times one first-sight cycle
/// (3,000 requests: thirty beyond its p99).
constexpr std::size_t kFirstSightEvery = 50;
constexpr double kZipfExponent = 1.0;

/// One distinct query with its pre-encoded frame and, once known, the hash
/// of the offline answer it must be served.
struct Key {
  serve::QueryRequest request;
  std::string frame;
  std::uint64_t expected = 0;
};

Key make_key(serve::QueryRequest request) {
  Key key;
  key.frame = request.to_json().dump() + "\n";
  key.request = std::move(request);
  return key;
}

/// The offline answer hash of every key, computed on kJobs threads.
/// Returns how many keys failed to answer (their hash stays 0).
std::size_t answer_offline(std::vector<Key>& keys) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kJobs; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        try {
          keys[i].expected = sweep::fnv1a64(serve::answer(keys[i].request));
        } catch (const std::exception&) {
          ++errors;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return errors.load();
}

/// Seeded request generator: Zipf draws over a permutation of the hot set
/// plus first-sight keys on platforms no request used before.
class KeySpace {
 public:
  KeySpace(const Options& options, Rng& rng) {
    std::vector<std::string> apps = serve::served_app_names();
    platforms_ = {"reference", "small-gpu", "dual-gpu",
                  "cpu-gpu-phi", "big-little", "quad"};
    std::array<int, 3> synth{4, 3, 3};  // by accelerator count
    if (options.quick) {
      apps.resize(2);
      platforms_.resize(2);
      synth = {0, 0, 0};
    }
    for (std::size_t k = 0; k < synth.size(); ++k)
      for (int n = 0; n < synth[k]; ++n)
        platforms_.push_back(fresh_synth_platform(rng, k + 1, used_));
    for (const std::string& op : serve::served_ops())
      for (const std::string& app : apps)
        for (bool small : {false, true}) {
          serve::QueryRequest request;
          request.op = op;
          request.app = app;
          request.small = small;
          shapes_.push_back(request);
          for (bool sync : {false, true}) {
            request.sync = sync;
            for (const std::string& platform : platforms_) {
              request.platform = platform;
              hot_.push_back(make_key(request));
            }
          }
        }
    // Zipf(1.0) over a seeded permutation: which keys are hot is part of
    // the seed, not of the key order.
    permutation_ = shuffled_indices(hot_.size(), rng);
    double total = 0.0;
    for (std::size_t rank = 1; rank <= hot_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& value : cdf_) value /= total;
  }

  std::vector<Key>& hot() { return hot_; }
  const std::vector<std::string>& platforms() const { return platforms_; }

  std::size_t draw_hot(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return permutation_[rank];
  }

  /// First-sight keys come in cycles that ask every (op, app, size) once.
  /// Their costs differ a hundredfold, so a latency window holds whole
  /// cycles, and every window computes the same mix.
  std::size_t cycle_length() const { return shapes_.size(); }

  /// The next first-sight key: the next shape of the cycle (each cycle in
  /// its own seeded order), sync drawn from the seed, on a platform never
  /// used before with 1, 2 and 3 accelerators in turn.
  Key draw_first_sight(Rng& rng) {
    const std::size_t i = first_sight_drawn_++;
    if (i % shapes_.size() == 0)
      cycle_order_ = shuffled_indices(shapes_.size(), rng);
    serve::QueryRequest request = shapes_[cycle_order_[i % shapes_.size()]];
    request.sync = rng.uniform() < 0.5;
    request.platform = fresh_synth_platform(rng, 1 + i % 3, used_);
    return make_key(std::move(request));
  }

 private:
  std::vector<std::string> platforms_;
  std::vector<Key> hot_;
  std::vector<std::size_t> permutation_;
  std::vector<double> cdf_;
  std::vector<serve::QueryRequest> shapes_;
  std::vector<std::size_t> cycle_order_;
  std::size_t first_sight_drawn_ = 0;
  std::set<std::uint64_t> used_;
};

/// One rate step's arrivals: Poisson at `rate` for `duration` seconds.
struct Schedule {
  double rate = 0.0;
  std::vector<double> due_s;
  /// Frame to send; points into the hot set or into `first_sight`.
  std::vector<const Key*> keys;
  std::deque<Key> first_sight;
};

Schedule make_schedule(KeySpace& space, Rng& rng, double rate,
                       double duration) {
  Schedule schedule;
  schedule.rate = rate;
  const auto phase = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kFirstSightEvery - 1)));
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    schedule.due_s.push_back(t);
    if ((i + phase) % kFirstSightEvery == 0) {
      schedule.first_sight.push_back(space.draw_first_sight(rng));
      schedule.keys.push_back(&schedule.first_sight.back());
    } else {
      schedule.keys.push_back(&space.hot()[space.draw_hot(rng)]);
    }
  }
  return schedule;
}

/// Keep-alive connections to the daemon, each with the FIFO of requests it
/// is waiting on (responses on one connection come in order).
class Connections {
 public:
  Connections(int port, unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->client =
          std::make_unique<serve::QueryClient>("127.0.0.1", port);
    }
  }

  struct Lane {
    std::unique_ptr<serve::QueryClient> client;
    std::mutex mutex;
    std::deque<std::size_t> waiting;  ///< guarded by mutex
    std::atomic<int> outstanding{0};
    std::string buffer;  ///< receiver thread only
  };

  std::vector<std::unique_ptr<Lane>>& lanes() { return lanes_; }

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

struct StepResult {
  double rate = 0.0;
  std::size_t requests = 0;
  std::size_t failed = 0;
  /// Over the whole step (the ladder's pass/fail test).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Medians over the step's whole windows of consecutive requests in which
  /// the generator kept its schedule (all windows when none did): one host
  /// stall moves one window, not the step's reported latency.
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t on_time_windows = 0;
  std::vector<double> window_p99s_ms;  ///< every window's p99, in order
  double late_p99_ms = 0.0;
  int backlog_max = 0;
  bool backlog_grew = false;
  /// Hash of each served output, in schedule order (0 = no valid answer).
  std::vector<std::uint64_t> served;
  /// Latency already runs from the due time, so a late generator charges
  /// the step; an invalid step is reported, not retried.
  bool valid() const { return late_p99_ms <= kLateLimitMs; }
  bool passed() const {
    return failed == 0 && p99_ms <= kP99LimitMs && !backlog_grew;
  }
};

/// Plays `schedule` open loop: one sender (this thread) routes each request
/// to the least-outstanding connection at its due time; one receiver thread
/// polls every connection and matches responses FIFO. Latency runs from the
/// due time, so a stall also charges the requests queued behind it.
StepResult play(Connections& connections, const Schedule& schedule,
                std::size_t window_requests, Tracer& tracer) {
  auto& lanes = connections.lanes();
  const std::size_t n = schedule.due_s.size();
  std::vector<Clock::time_point> sent(n), received(n);
  std::vector<int> lane_of(n, -1);
  std::vector<std::uint64_t> served(n, 0);
  std::vector<char> answered(n, 0);
  std::vector<std::string> lines(n);
  std::atomic<bool> sending_done{false};
  std::atomic<std::size_t> answered_count{0};

  std::thread receiver([&] {
    std::vector<pollfd> fds(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l)
      fds[l] = pollfd{lanes[l]->client->fd(), POLLIN, 0};
    Clock::time_point progress = Clock::now();
    char chunk[1 << 16];
    while (answered_count.load() < n) {
      if (sending_done.load() &&
          seconds_since(progress) > kResponseTimeoutS)
        break;
      if (::poll(fds.data(), fds.size(), 2) <= 0) continue;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        if ((fds[l].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::recv(fds[l].fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          fds[l].fd = -1;  // peer closed: its waiting requests time out
          continue;
        }
        const Clock::time_point now = Clock::now();
        Connections::Lane& lane = *lanes[l];
        lane.buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl; (nl = lane.buffer.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1) {
          std::size_t index = 0;
          {
            std::lock_guard<std::mutex> lock(lane.mutex);
            if (lane.waiting.empty()) continue;  // unsolicited frame
            index = lane.waiting.front();
            lane.waiting.pop_front();
          }
          lane.outstanding.fetch_sub(1);
          received[index] = now;
          lines[index] = lane.buffer.substr(start, nl - start);
          answered[index] = 1;
          answered_count.fetch_add(1);
          progress = now;
        }
        lane.buffer.erase(0, start);
      }
    }
  });

  StepResult step;
  step.rate = schedule.rate;
  step.requests = n;
  std::vector<double> late_ms(n, 0.0);
  std::vector<int> backlog(n, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule.due_s[i]));
  };
  {
    // Stops and joins the receiver on every way out of the send loop.
    struct StopReceiver {
      std::atomic<bool>& done;
      std::thread& thread;
      ~StopReceiver() {
        done.store(true);
        thread.join();
      }
    } stop{sending_done, receiver};
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due(i));
      std::size_t pick = 0;
      int least = std::numeric_limits<int>::max();
      int total = 0;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        const int outstanding = lanes[l]->outstanding.load();
        total += outstanding;
        if (outstanding < least) {
          least = outstanding;
          pick = l;
        }
      }
      backlog[i] = total;
      Connections::Lane& lane = *lanes[pick];
      {
        std::lock_guard<std::mutex> lock(lane.mutex);
        lane.waiting.push_back(i);
      }
      lane.outstanding.fetch_add(1);
      lane_of[i] = static_cast<int>(pick);
      sent[i] = Clock::now();
      late_ms[i] = 1e3 * seconds_between(due(i), sent[i]);
      if (!serve::write_all(lane.client->fd(), schedule.keys[i]->frame)) break;
    }
  }

  std::vector<double> latency_ms;
  latency_ms.reserve(n);
  // Whole windows only; a step too short for one is a single window.
  struct Window {
    std::vector<double> latency_ms;
    std::vector<double> late_ms;
  };
  const std::size_t whole = n / window_requests;
  std::vector<Window> windows(std::max<std::size_t>(1, whole));
  const auto window_of = [&](std::size_t i) -> Window* {
    if (whole == 0) return &windows[0];
    return i / window_requests < whole ? &windows[i / window_requests]
                                       : nullptr;
  };
  for (std::size_t i = 0; i < n; ++i) {
    Window* window = window_of(i);
    if (window != nullptr) window->late_ms.push_back(late_ms[i]);
    bool ok = false;
    if (answered[i]) {
      try {
        const serve::QueryResponse response = serve::QueryResponse::from_json(
            json::Value::parse(lines[i]));
        if (response.status == serve::ResponseStatus::kOk) {
          served[i] = sweep::fnv1a64(response.output);
          const std::uint64_t expected = schedule.keys[i]->expected;
          ok = expected == 0 || expected == served[i];
        }
      } catch (const std::exception&) {
      }
      latency_ms.push_back(1e3 * seconds_between(due(i), received[i]));
      if (window != nullptr) window->latency_ms.push_back(latency_ms.back());
    }
    if (!ok) {
      served[i] = 0;
      ++step.failed;
    }
    if (tracer.enabled() && answered[i]) {
      const Tracer::Id root =
          tracer.record("request", due(i), received[i], 0, lane_of[i] + 1);
      tracer.record("generator-late", due(i), sent[i], root, lane_of[i] + 1);
      tracer.record("in-flight", sent[i], received[i], root, lane_of[i] + 1);
    }
  }
  step.served = std::move(served);
  step.p50_ms = quantile(latency_ms, 0.50);
  step.p99_ms = quantile(latency_ms, 0.99);
  // A window whose generator ran late measured the host's stalls of the
  // generator, not the daemon at the offered rate.
  std::vector<double> p50_all, p50_on_time, p99_on_time;
  for (const Window& window : windows) {
    if (window.latency_ms.empty()) continue;
    const double p50 = quantile(window.latency_ms, 0.50);
    const double p99 = quantile(window.latency_ms, 0.99);
    p50_all.push_back(p50);
    step.window_p99s_ms.push_back(p99);
    if (quantile(window.late_ms, 0.99) <= kLateLimitMs) {
      p50_on_time.push_back(p50);
      p99_on_time.push_back(p99);
    }
  }
  const bool on_time = !p99_on_time.empty();
  step.window_p50_ms = median(on_time ? p50_on_time : p50_all);
  step.window_p99_ms = median(on_time ? p99_on_time : step.window_p99s_ms);
  step.windows = step.window_p99s_ms.size();
  step.on_time_windows = p99_on_time.size();
  step.late_p99_ms = quantile(late_ms, 0.99);
  step.backlog_max = n == 0 ? 0 : *std::max_element(backlog.begin(),
                                                    backlog.end());
  // The backlog grew when the last quarter's mean more than doubled the
  // first quarter's (and by more than a few requests).
  if (n >= 8) {
    const std::size_t quarter = n / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += backlog[i];
      last += backlog[n - 1 - i];
    }
    first /= static_cast<double>(quarter);
    last /= static_cast<double>(quarter);
    step.backlog_grew = last > first + std::max(16.0, first);
  }
  return step;
}

/// The highest offered rate that meets the p99 limit, interpolated on
/// log-p99 between the highest passing step `pass` and the lowest failing
/// step `fail` (either may be missing).
double crossing_rate(const StepResult* pass, const StepResult* fail) {
  if (fail == nullptr) return pass == nullptr ? 0.0 : pass->rate;
  const double fail_p99 = std::max(fail->p99_ms, kP99LimitMs);
  if (pass == nullptr) return fail->rate * kP99LimitMs / fail_p99;
  // A step that failed on its backlog alone crosses at the passing rate.
  if (fail_p99 <= kP99LimitMs || pass->p99_ms <= 0.0) return pass->rate;
  const double t = (std::log(kP99LimitMs) - std::log(pass->p99_ms)) /
                   (std::log(fail_p99) - std::log(pass->p99_ms));
  return pass->rate + (fail->rate - pass->rate) * std::clamp(t, 0.0, 1.0);
}

/// One measured phase: low, high, then the ladder until a step fails.
struct Phase {
  std::vector<StepResult> steps;  ///< low, high, ladder...
  /// A deque: requests point into their schedule's first-sight keys, so
  /// schedules must never relocate.
  std::deque<Schedule> schedules;
  double max_rps = 0.0;
  /// Daemon computes during the low and high steps (deterministic: one per
  /// first-sight request).
  std::int64_t computes = 0;
  const StepResult& low() const { return steps[0]; }
  const StepResult& high() const { return steps[1]; }
};

Phase run_phase(const Options& options, KeySpace& space, Rng& rng,
                const serve::Server& server, Tracer& tracer) {
  // At 15 s: 1.9 s at low, 11.25 s at high (eleven windows: the reported
  // latencies are their median), and ladder steps of 0.75 s (1,500
  // requests at the first rung).
  const double low_s = options.quick ? 0.2 : options.seconds / 8.0;
  const double high_s = options.quick ? 0.2 : options.seconds * 0.75;
  const double ladder_s = options.quick ? 0.1 : options.seconds / 20.0;
  const std::size_t window_requests = kFirstSightEvery * space.cycle_length();
  Phase phase;
  Connections connections(server.port(), kJobs);
  const std::int64_t computes_before = server.cache().counters().computes;
  phase.schedules.push_back(make_schedule(space, rng, kLowRate, low_s));
  phase.schedules.push_back(make_schedule(space, rng, kHighRate, high_s));
  for (std::size_t s = 0; s < 2; ++s) {
    const Tracer::Id id = tracer.open("step");
    phase.steps.push_back(
        play(connections, phase.schedules[s], window_requests, tracer));
    tracer.close(id);
  }
  phase.computes = server.cache().counters().computes - computes_before;

  // Plays one step at `rate`; a failing step is played once more with fresh
  // arrivals and fails only if that fails too, so one host stall does not
  // end the ladder. Returns the index of the deciding step in phase.steps.
  const auto step_at = [&](double rate) {
    for (int attempt = 0;; ++attempt) {
      phase.schedules.push_back(make_schedule(space, rng, rate, ladder_s));
      const Tracer::Id id = tracer.open("step");
      phase.steps.push_back(play(connections, phase.schedules.back(),
                                 window_requests, tracer));
      tracer.close(id);
      if (phase.steps.back().passed() || attempt == 1)
        return phase.steps.size() - 1;
    }
  };
  // Indices into phase.steps of the bracket around the crossing.
  std::optional<std::size_t> pass, fail;
  const std::size_t rungs = options.quick ? 2 : kLadder.size();
  for (std::size_t r = 0; r < rungs && !fail; ++r) {
    const std::size_t step = step_at(kLadder[r]);
    (phase.steps[step].passed() ? pass : fail) = step;
  }
  for (int b = 0; b < kBisections && pass && fail && !options.quick; ++b) {
    const std::size_t step = step_at(
        std::sqrt(phase.steps[*pass].rate * phase.steps[*fail].rate));
    (phase.steps[step].passed() ? pass : fail) = step;
  }
  phase.max_rps = crossing_rate(pass ? &phase.steps[*pass] : nullptr,
                                fail ? &phase.steps[*fail] : nullptr);
  return phase;
}

/// First-sight answers are only known once asked: check them offline now.
/// Returns the number of served outputs that differ from answer().
std::size_t check_first_sight(Phase& phase) {
  std::vector<Key> keys;
  std::vector<std::pair<std::size_t, std::size_t>> where;  // step, request
  for (std::size_t s = 0; s < phase.schedules.size(); ++s) {
    const Schedule& schedule = phase.schedules[s];
    for (std::size_t i = 0; i < schedule.keys.size(); ++i) {
      if (schedule.keys[i]->expected != 0) continue;
      keys.push_back(*schedule.keys[i]);
      where.emplace_back(s, i);
    }
  }
  answer_offline(keys);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    StepResult& step = phase.steps[where[k].first];
    std::uint64_t& served = step.served[where[k].second];
    // Unanswered requests already counted as failed.
    if (served != 0 && served != keys[k].expected) {
      served = 0;
      ++step.failed;
      ++mismatches;
    }
  }
  return mismatches;
}

std::size_t failed_requests(const Phase& phase) {
  std::size_t failed = 0;
  for (const StepResult& step : phase.steps) failed += step.failed;
  return failed;
}

std::size_t sent_requests(const Phase& phase) {
  std::size_t sent = 0;
  for (const StepResult& step : phase.steps) sent += step.requests;
  return sent;
}

/// Hash of every served output of the low and high steps, in schedule
/// order. (The ladder's length depends on timing, so it stays out.)
std::uint64_t phase_digest(const Phase& phase) {
  std::vector<std::uint64_t> hashes = phase.low().served;
  hashes.insert(hashes.end(), phase.high().served.begin(),
                phase.high().served.end());
  return fold_digest(hashes);
}

double per_call_us(const std::map<std::string, obs::PhaseStats>& delta,
                   std::string_view stage) {
  const auto it = delta.find(std::string(stage));
  if (it == delta.end() || it->second.calls == 0) return 0.0;
  return 1e3 * it->second.self_ms / static_cast<double>(it->second.calls);
}

bool is_paper_app(const std::string& name) {
  for (apps::PaperApp app : apps::all_paper_apps())
    if (name == apps::paper_app_id(app)) return true;
  return false;
}

}  // namespace

void run_serve_zipf(const Options& options, Result& result) {
  std::unique_ptr<KeySpace> space;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setups, setup_cpu;
  std::size_t setup_failures = 0;
  for (int i = 0; i < options.setups; ++i) {
    const Clock::time_point start =
        i == 0 ? options.process_start : Clock::now();
    const double cpu_start = i == 0 ? 0.0 : process_cpu_s();
    server.reset();
    Rng setup_rng(options.seed);
    space = std::make_unique<KeySpace>(options, setup_rng);
    setup_failures += answer_offline(space->hot());
    server = std::make_unique<serve::Server>(serve::ServeOptions{});
    server->start();
    // Warm every hot key through the daemon, one closed loop per
    // connection, checking each answer against the offline table.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> warmers;
    for (unsigned c = 0; c < kJobs; ++c) {
      warmers.emplace_back([&] {
        std::vector<Key>& hot = space->hot();
        try {
          serve::QueryClient client("127.0.0.1", server->port());
          for (std::size_t k = next++; k < hot.size(); k = next++) {
            const serve::QueryResponse response = client.ask(hot[k].request);
            if (response.status != serve::ResponseStatus::kOk ||
                sweep::fnv1a64(response.output) != hot[k].expected)
              ++mismatches;
          }
        } catch (const std::exception&) {
          ++mismatches;  // connection lost: the rest of its keys go unwarmed
        }
      });
    }
    for (std::thread& warmer : warmers) warmer.join();
    setup_failures += mismatches.load();
    setups.push_back(seconds_since(start));
    setup_cpu.push_back(process_cpu_s() - cpu_start);
  }
  record_setups(setups, setup_cpu, result);
  result.check("every hot key answers offline and through the daemon",
               setup_failures == 0,
               std::to_string(setup_failures) + " failures over " +
                   std::to_string(space->hot().size() * options.setups));
  // Arrivals, key draws and first-sight keys: a stream of their own.
  Rng rng(options.seed ^ 0x617272697661ull);
  Tracer off(false);
  Phase phase = run_phase(options, *space, rng, *server, off);
  const std::size_t mismatches = check_first_sight(phase);
  result.add_ops(static_cast<std::int64_t>(sent_requests(phase)),
                 static_cast<std::int64_t>(failed_requests(phase)));
  result.check("served outputs equal offline answer()",
               failed_requests(phase) == 0,
               std::to_string(failed_requests(phase)) + " failed requests, " +
                   std::to_string(mismatches) + " byte mismatches");
  result.set_digest(phase_digest(phase));

  result.metric("throughput_per_s", phase.max_rps, "1/s", Better::kHigher,
                "e2e");
  result.metric("latency_p50_ms", phase.high().window_p50_ms, "ms",
                Better::kLower, "e2e");
  result.metric("latency_p99_ms", phase.high().window_p99_ms, "ms",
                Better::kLower, "e2e");
  result.metric("serve.p50_ms.low", phase.low().window_p50_ms, "ms",
                Better::kLower, "e2e");
  result.metric("serve.p99_ms.low", phase.low().window_p99_ms, "ms",
                Better::kLower, "e2e");
  bool generator_on_time = true;
  json::Value steps{json::Value::Array{}};
  for (const StepResult& step : phase.steps) {
    generator_on_time = generator_on_time && step.valid();
    json::Value entry;
    entry.set("rate", json::Value(step.rate));
    entry.set("requests",
              json::Value(static_cast<std::int64_t>(step.requests)));
    entry.set("p50_ms", json::Value(step.p50_ms));
    entry.set("p99_ms", json::Value(step.p99_ms));
    entry.set("window_p50_ms", json::Value(step.window_p50_ms));
    entry.set("window_p99_ms", json::Value(step.window_p99_ms));
    entry.set("windows", json::Value(static_cast<std::int64_t>(step.windows)));
    entry.set("on_time_windows",
              json::Value(static_cast<std::int64_t>(step.on_time_windows)));
    json::Value window_p99s{json::Value::Array{}};
    for (double p99 : step.window_p99s_ms)
      window_p99s.push_back(json::Value(p99));
    entry.set("window_p99s_ms", std::move(window_p99s));
    entry.set("valid", json::Value(step.valid()));
    entry.set("late_p99_ms", json::Value(step.late_p99_ms));
    entry.set("backlog_max", json::Value(step.backlog_max));
    entry.set("backlog_grew", json::Value(step.backlog_grew));
    entry.set("passed", json::Value(step.passed()));
    steps.push_back(std::move(entry));
  }
  result.set_param("steps", std::move(steps));
  result.set_param("generator_on_time", json::Value(generator_on_time));
  result.set_param("rates", [] {
    json::Value rates;
    rates.set("low", json::Value(kLowRate));
    rates.set("high", json::Value(kHighRate));
    json::Value ladder{json::Value::Array{}};
    for (double rate : kLadder) ladder.push_back(json::Value(rate));
    rates.set("ladder", std::move(ladder));
    return rates;
  }());
  result.set_param("hot_keys",
                   json::Value(static_cast<std::int64_t>(space->hot().size())));
  json::Value platforms{json::Value::Array{}};
  for (const std::string& name : space->platforms())
    platforms.push_back(json::Value(name));
  result.set_param("platforms", std::move(platforms));
  result.count("serve.computes", static_cast<double>(phase.computes),
               "serve");
  // How the generator kept up while the reported latencies were measured.
  result.metric("serve.gen_late_p99_ms",
                std::max(phase.low().late_p99_ms, phase.high().late_p99_ms),
                "ms", Better::kLower, "serve");
  result.metric("serve.backlog_max",
                std::max(phase.low().backlog_max, phase.high().backlog_max),
                "requests", Better::kLower, "serve");

  if (options.trace) {
    Tracer tracer(true);
    const auto before = obs::phase_profiler().snapshot();
    const auto cache_before = server->cache().counters();
    Phase traced = run_phase(options, *space, rng, *server, tracer);
    const auto delta = phase_delta(before, obs::phase_profiler().snapshot());
    const auto cache_after = server->cache().counters();
    const std::size_t traced_mismatches = check_first_sight(traced);
    result.add_ops(static_cast<std::int64_t>(sent_requests(traced)),
                   static_cast<std::int64_t>(failed_requests(traced)));
    result.check("traced phase outputs equal offline answer()",
                 failed_requests(traced) == 0,
                 std::to_string(traced_mismatches) + " byte mismatches");

    const double lookups = static_cast<double>(
        (cache_after.hits - cache_before.hits) +
        (cache_after.misses - cache_before.misses));
    result.metric("serve.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(cache_after.hits -
                                                    cache_before.hits) /
                                    lookups
                              : 0.0,
                  "ratio", Better::kHigher, "serve");
    result.metric("serve.admission_us",
                  per_call_us(delta, obs::kPhaseAdmission), "us",
                  Better::kLower, "serve");
    result.metric("serve.cache_us", per_call_us(delta, obs::kPhaseCache), "us",
                  Better::kLower, "serve");
    result.metric("serve.compute_us", per_call_us(delta, obs::kPhaseCompute),
                  "us", Better::kLower, "serve");
    result.metric("serve.serialize_write_us",
                  per_call_us(delta, obs::kPhaseSerialize), "us",
                  Better::kLower, "serve");
    const auto sim = delta.find(std::string(obs::kPhaseSimEventLoop));
    result.metric("runtime.event_loop_self_ms",
                  sim == delta.end() ? 0.0 : sim->second.self_ms, "ms",
                  Better::kLower, "runtime");
    result.metric("obs.trace_overhead_pct",
                  (traced.high().window_p50_ms - phase.high().window_p50_ms) /
                      phase.high().window_p50_ms * 100.0,
                  "%", Better::kLower, "obs");

    // Probe the layers on a sample of the hot set's scenarios.
    std::vector<ProbeItem> items;
    for (const Key& key : space->hot()) {
      if (key.request.op != "analyze") continue;
      ProbeItem item;
      item.app = key.request.app;
      item.paper_app = is_paper_app(key.request.app);
      item.platform = key.request.platform;
      item.strategy = "DP-Perf";
      item.sync = key.request.sync;
      item.small = key.request.small;
      items.push_back(std::move(item));
    }
    run_layer_probes(options, items, tracer, result);
    finish_trace(options, tracer, result);
  }
  server->request_shutdown();
  server->wait();
}

}  // namespace hetsched::perf
