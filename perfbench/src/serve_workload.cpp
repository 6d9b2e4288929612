// serve_mixed: an in-process serve::Server on a private Unix socket with
// two sessions settled at the native-interp tier, driven by an open loop
// of mixed traffic at a fixed offered rate, then by a short closed loop
// that measures capacity. Every reply is checked bitwise against golden
// values computed in-process on the plan VM.

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "layers.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "inputs.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "probe.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using glaf::serve::Tier;

/// Traffic clients give up on a silent server well inside a run; they do
/// not retry, so a failure counts once.
const glaf::serve::Client::Options kClientOptions = {
    .connect_timeout_ms = 5000, .read_timeout_ms = 5000, .retries = 0};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

glaf::Program builtin_program(const std::string& name) {
  return name == "sarb" ? glaf::fuliou::build_sarb_program()
                        : glaf::fun3d::build_fun3d_glaf_program();
}

/// Golden replies, computed in-process on the plan VM from the same
/// builtin programs the sessions serve.
struct Golden {
  std::vector<double> by_entry;  ///< entries without arguments
  std::vector<double> by_pair;   ///< find_offset, per argument pair

  [[nodiscard]] double value(int entry, const std::vector<std::uint16_t>& pairs,
                             std::size_t call) const {
    return pairs.empty() ? by_entry[static_cast<std::size_t>(entry)]
                         : by_pair[pairs[call]];
  }
};

Golden compute_golden(std::uint64_t seed, const RunArgs& args) {
  std::map<std::string, std::unique_ptr<glaf::Machine>> plan;
  for (const char* name : {"sarb", "fun3d"}) {
    plan[name] = std::make_unique<glaf::Machine>(builtin_program(name));
  }
  Golden g;
  for (const ServeEntry& e : serve_entries()) {
    double v = 0.0;
    if (e.num_args == 0) {
      auto r = plan[e.builtin]->call(e.entry);
      if (!r.is_ok()) {
        throw BenchError(where(args, "golden " + std::string(e.entry)));
      }
      v = r.value();
    }
    g.by_entry.push_back(v);
  }
  for (const auto& [row, target] : find_offset_args(seed, kFindOffsetPairs)) {
    auto r = plan["fun3d"]->call("find_offset", {row, target});
    if (!r.is_ok()) throw BenchError(where(args, "golden find_offset"));
    g.by_pair.push_back(r.value());
  }
  return g;
}

/// Width of the server's batcher sweep pool. Sessions run serial kernels,
/// so sweeps run on the dispatcher thread alone: a spin-waiting sweep
/// worker sharing the vCPUs with the connection threads cut capacity to
/// a third in some runs, which measured the guest scheduler, not the
/// server.
inline constexpr int kServePoolThreads = 1;

/// A started server with both sessions settled at native-interp.
struct Served {
  std::unique_ptr<glaf::serve::Server> server;
  std::string socket;
  std::map<std::string, std::uint64_t> session_id;  ///< by builtin
  std::map<std::string, std::shared_ptr<glaf::serve::Session>> session;
};

Served start_served(const RunArgs& args, int rep) {
  Served s;
  s.socket = args.work_dir + "/s" + std::to_string(rep) + ".sock";
  glaf::serve::Server::Options so;
  so.socket_path = s.socket;
  so.threads = kServePoolThreads;
  so.cache_dir = args.work_dir + "/cache-setup" + std::to_string(rep);
  std::filesystem::create_directories(so.cache_dir);
  s.server = std::make_unique<glaf::serve::Server>(so);
  if (const glaf::Status st = s.server->start(); !st.is_ok()) {
    throw BenchError(where(args, "server start: " + st.message()));
  }
  glaf::serve::Client loader;
  if (const glaf::Status st = loader.connect(s.socket); !st.is_ok()) {
    throw BenchError(where(args, "connect: " + st.message()));
  }
  glaf::serve::ExecConfig config;
  config.target_tier = static_cast<std::uint8_t>(Tier::kNativeInterp);
  for (const char* name : {"sarb", "fun3d"}) {
    auto load = loader.load_builtin(name, config);
    if (!load.is_ok()) {
      throw BenchError(where(args, std::string("load ") + name + ": " +
                                       load.status().message()));
    }
    s.session_id[name] = load.value().session_id;
    s.session[name] = s.server->registry().find(load.value().session_id);
  }
  s.server->compile_queue().wait_idle();
  for (const auto& [name, session] : s.session) {
    if (session->tier() != Tier::kNativeInterp) {
      throw BenchError(where(args, "session " + name +
                                       " did not settle at native-interp: " +
                                       session->stats().compile_error));
    }
  }
  return s;
}

enum class Phase { kOpen, kClosed };

struct OpRecord {
  OpKind kind = OpKind::kRun;
  OpTiming t;
  std::uint32_t calls = 1;
  bool traced = false;
};

/// Per-request replay of the server-side layers, timed in-process.
struct Replay {
  std::vector<double> decode_us, encode_us, acquire_us, exec_us;
};

/// Shared state of the client threads.
struct Traffic {
  const Served* served = nullptr;
  const Golden* golden = nullptr;
  const std::vector<ServeOp>* ops = nullptr;
  OpenLoop loop;
  std::int64_t phase_start_ns = 0;
  std::int64_t phase_ns = 0;
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::string error;  ///< first wrong value, if any

  void fail_run(const std::string& message) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (error.empty()) error = message;
    stop.store(true);
  }
};

/// Per-connection results.
/// Capacity-phase accounting in fixed memory: its request count grows
/// with throughput, and per-request vectors would make the harness's own
/// memory part of the measured peak RSS.
inline constexpr std::int64_t kCapacityWindowNs = kWindowNs / 2;
struct CapacityResult {
  Histogram latency_us{0.25, 16'000};       ///< up to 4 ms, then overflow
  std::vector<std::uint64_t> done_by_window;  ///< kCapacityWindowNs each
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

struct ConnResult {
  std::vector<OpRecord> records;      ///< open loop, one per slot sent
  CapacityResult capacity;            ///< closed loop
  std::vector<double> round_trip_us;  ///< traced single runs
  Replay replay;
  std::uint64_t refused = 0;
};

std::uint64_t session_of(const Served& s, int entry) {
  return s.session_id.at(
      serve_entries()[static_cast<std::size_t>(entry)].builtin);
}

/// Replay one single run through the server's layers in-process: decode
/// the request frame, lease an instance, call it, release, encode and
/// decode the reply. Spans go under `parent`.
void replay_run(const Served& s, const ServeOp& op, std::uint64_t id,
                Tracer& tracer, Replay* out, Traffic& traffic) {
  const ServeEntry& e = serve_entries()[static_cast<std::size_t>(op.entry)];
  const int root = tracer.begin("serve.replay", id);
  glaf::serve::RunEntryMsg msg;
  msg.session_id = session_of(s, op.entry);
  msg.entry = e.entry;
  msg.args = op.args;
  std::int64_t t0 = now_ns();
  const glaf::serve::Frame request = glaf::serve::encode(msg);
  const std::vector<std::uint8_t> wire = glaf::serve::encode_frame(request);
  std::int64_t t1 = now_ns();
  tracer.add("serve.encode", id, root, t0, t1);
  double encode_ns = static_cast<double>(t1 - t0);
  t0 = now_ns();
  auto decoded = glaf::serve::decode_run_entry(request);
  t1 = now_ns();
  tracer.add("serve.decode", id, root, t0, t1);
  double decode_ns = static_cast<double>(t1 - t0);
  if (!decoded.is_ok() || wire.size() != glaf::serve::kHeaderSize +
                                             request.payload.size()) {
    traffic.fail_run("replay: request frame did not round-trip");
    return;
  }
  const auto& session = s.session.at(e.builtin);
  t0 = now_ns();
  auto lease = session->acquire();
  t1 = now_ns();
  tracer.add("serve.acquire", id, root, t0, t1);
  double acquire_ns = static_cast<double>(t1 - t0);
  if (!lease.is_ok()) {
    traffic.fail_run("replay: acquire failed: " + lease.status().message());
    return;
  }
  std::vector<glaf::CallArg> call_args(decoded.value().args.begin(),
                                       decoded.value().args.end());
  t0 = now_ns();
  auto result = lease.value().machine().call(e.entry, call_args);
  t1 = now_ns();
  tracer.add("serve.exec", id, root, t0, t1);
  out->exec_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  const Tier tier = lease.value().tier();
  t0 = now_ns();
  { auto released = std::move(lease).value(); }
  t1 = now_ns();
  tracer.add("serve.release", id, root, t0, t1);
  acquire_ns += static_cast<double>(t1 - t0);
  if (!result.is_ok() ||
      !same_bits(result.value(),
                 traffic.golden->value(op.entry, op.pairs, 0)) ||
      tier != Tier::kNativeInterp) {
    traffic.fail_run("replay: wrong value or tier for " + std::string(e.entry));
    return;
  }
  glaf::serve::RunReplyMsg reply;
  reply.tier = static_cast<std::uint8_t>(tier);
  reply.result = result.value();
  t0 = now_ns();
  const glaf::serve::Frame reply_frame = glaf::serve::encode(reply);
  const std::vector<std::uint8_t> reply_wire =
      glaf::serve::encode_frame(reply_frame);
  t1 = now_ns();
  tracer.add("serve.encode", id, root, t0, t1);
  encode_ns += static_cast<double>(t1 - t0);
  t0 = now_ns();
  auto reply_back = glaf::serve::decode_run_reply(reply_frame);
  t1 = now_ns();
  tracer.add("serve.decode", id, root, t0, t1);
  decode_ns += static_cast<double>(t1 - t0);
  tracer.end(root);
  if (!reply_back.is_ok() || reply_wire.empty()) {
    traffic.fail_run("replay: reply frame did not round-trip");
    return;
  }
  out->decode_us.push_back(decode_ns / 1e3);
  out->encode_us.push_back(encode_ns / 1e3);
  out->acquire_us.push_back(acquire_ns / 1e3);
}

/// Send one operation and check its reply. Returns false when the
/// operation failed (transport error, refusal, deadline).
bool perform(glaf::serve::Client& client, const ServeOp& op, std::size_t slot,
             Traffic& traffic, ConnResult* out) {
  const Served& s = *traffic.served;
  const ServeEntry& e = serve_entries()[static_cast<std::size_t>(op.entry)];
  auto note_failure = [&](const glaf::Status& st) {
    if (st.code() == glaf::StatusCode::kBusy) ++out->refused;
    return false;
  };
  auto wrong = [&](const std::string& what) {
    traffic.fail_run("wrong value at op " + std::to_string(slot) + " (" +
                     to_string(op.kind) + " " + e.entry + "): " + what);
    return false;
  };
  switch (op.kind) {
    case OpKind::kRun: {
      auto r = client.run(session_of(s, op.entry), e.entry, op.args,
                          /*deadline_ms=*/1000);
      if (!r.is_ok()) return note_failure(r.status());
      if (r.value().tier != static_cast<std::uint8_t>(Tier::kNativeInterp)) {
        return wrong("served below native-interp");
      }
      if (!same_bits(r.value().result,
                     traffic.golden->value(op.entry, op.pairs, 0))) {
        return wrong("result differs from golden");
      }
      return true;
    }
    case OpKind::kBatch: {
      auto r = client.run_batch(session_of(s, op.entry), e.entry, op.count,
                                static_cast<std::uint32_t>(e.num_args),
                                op.args, /*deadline_ms=*/1000);
      if (!r.is_ok()) return note_failure(r.status());
      if (r.value().results.size() != op.count) return wrong("batch size");
      for (std::size_t c = 0; c < op.count; ++c) {
        const auto& one = r.value().results[c];
        if (one.tier != static_cast<std::uint8_t>(Tier::kNativeInterp) ||
            !same_bits(one.result,
                       traffic.golden->value(op.entry, op.pairs, c))) {
          return wrong("batch element " + std::to_string(c));
        }
      }
      return true;
    }
    case OpKind::kStats: {
      auto r = client.stats(0);
      if (!r.is_ok()) return note_failure(r.status());
      if (r.value().empty() || r.value().front() != '{') {
        return wrong("stats reply is not a JSON object");
      }
      return true;
    }
    case OpKind::kHealth: {
      auto r = client.health();
      if (!r.is_ok()) return note_failure(r.status());
      if (r.value().ready != 1) return wrong("health says not ready");
      return true;
    }
  }
  return false;
}

/// One connection of the open loop: its slots are k = c, c + C, ...;
/// each is sent when due (or at once when late) and timed from its due
/// time. Traced runs trace every other slot of single runs and replay
/// those through the in-process layers.
void open_loop_connection(int c, Traffic& traffic, Tracer& tracer,
                          ConnResult* out) {
  glaf::serve::Client client;
  if (!client.connect(traffic.served->socket, kClientOptions).is_ok()) {
    traffic.fail_run("connect failed");
    return;
  }
  const auto& ops = *traffic.ops;
  const auto stride = static_cast<std::size_t>(traffic.loop.connections);
  for (std::size_t slot = static_cast<std::size_t>(c);
       slot < ops.size() && !traffic.stop.load(); slot += stride) {
    const std::int64_t due = traffic.loop.due_ns(slot);
    if (due >= traffic.phase_ns) break;
    const auto when =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(traffic.phase_start_ns + due - now_ns());
    std::this_thread::sleep_until(when);
    const ServeOp& op = ops[slot];
    OpRecord rec;
    rec.kind = op.kind;
    rec.calls = op.count;
    rec.t.due_ns = due;
    rec.t.sent_ns = now_ns() - traffic.phase_start_ns;
    const bool traced =
        tracer.enabled() && slot % 2 == 0 && op.kind == OpKind::kRun;
    rec.traced = traced;
    rec.t.ok = perform(client, op, slot, traffic, out);
    rec.t.done_ns = now_ns() - traffic.phase_start_ns;
    out->records.push_back(rec);
    if (traced && rec.t.ok) {
      const std::int64_t base = traffic.phase_start_ns;
      const int root = tracer.add("serve.request", slot, -1,
                                  base + rec.t.due_ns, base + rec.t.done_ns);
      if (rec.t.sent_ns > rec.t.due_ns) {
        tracer.add("serve.generator_late", slot, root, base + rec.t.due_ns,
                   base + rec.t.sent_ns);
      }
      tracer.add("serve.round_trip", slot, root, base + rec.t.sent_ns,
                 base + rec.t.done_ns);
      out->round_trip_us.push_back(
          static_cast<double>(rec.t.done_ns - rec.t.sent_ns) / 1e3);
      replay_run(*traffic.served, op, slot, tracer, &out->replay, traffic);
    }
  }
}

/// One connection of the closed capacity loop: single runs back to back.
void closed_loop_connection(int c, Traffic& traffic, ConnResult* out) {
  glaf::serve::Client client;
  if (!client.connect(traffic.served->socket, kClientOptions).is_ok()) {
    traffic.fail_run("connect failed");
    return;
  }
  const auto& ops = *traffic.ops;
  CapacityResult& cap = out->capacity;
  cap.done_by_window.assign(
      static_cast<std::size_t>(traffic.phase_ns / kCapacityWindowNs), 0);
  std::size_t slot = static_cast<std::size_t>(c);
  while (!traffic.stop.load() &&
         now_ns() - traffic.phase_start_ns < traffic.phase_ns) {
    slot = (slot + static_cast<std::size_t>(traffic.loop.connections)) %
           ops.size();
    if (ops[slot].kind != OpKind::kRun) continue;
    const std::int64_t sent = now_ns();
    if (!perform(client, ops[slot], slot, traffic, out)) {
      ++cap.failed;
      continue;
    }
    const std::int64_t done = now_ns();
    ++cap.ok;
    cap.latency_us.add(static_cast<double>(done - sent) / 1e3);
    const auto window = static_cast<std::size_t>(
        (done - traffic.phase_start_ns) / kCapacityWindowNs);
    if (window < cap.done_by_window.size()) ++cap.done_by_window[window];
  }
}

std::vector<ConnResult> run_phase(Phase phase, Traffic& traffic,
                                  TraceSink& sink, double seconds) {
  const int conns = traffic.loop.connections;
  std::vector<ConnResult> results(static_cast<std::size_t>(conns));
  std::vector<Tracer*> tracers;
  for (int c = 0; c < conns; ++c) tracers.push_back(&sink.make());
  traffic.phase_ns = static_cast<std::int64_t>(seconds * 1e9);
  traffic.phase_start_ns = now_ns() + 1'000'000;  // let the threads start
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnResult* out = &results[static_cast<std::size_t>(c)];
      if (phase == Phase::kOpen) {
        open_loop_connection(c, traffic,
                             *tracers[static_cast<std::size_t>(c)], out);
      } else {
        closed_loop_connection(c, traffic, out);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace

Outcome run_serve_mixed(const RunArgs& args, Report& report, TraceSink& sink) {
  glaf::jit::reset_kernel_cache_stats();
  const Golden golden = compute_golden(args.seed, args);
  const double open_s = args.seconds * 0.4;
  const double closed_s = args.seconds - open_s;
  OpenLoop loop;
  loop.rate_per_s = kServeRatePerS;
  loop.connections = args.threads;
  const std::vector<ServeOp> ops =
      serve_ops(args.seed, loop.slots_within(open_s) + 1);
  report.note("offered_rate_per_s", kServeRatePerS);
  report.note("connections", static_cast<double>(loop.connections));
  report.note("server_pool_threads", static_cast<double>(kServePoolThreads));
  report.note("batch_share", kBatchShare);
  report.note("batch_calls", static_cast<double>(kBatchCalls));

  // Cold set-ups: server start, both sessions loaded and settled at
  // native-interp over an empty kernel cache, first checked replies.
  std::vector<double> setup_s;
  std::vector<double> promotion_s;
  Served served;
  Outcome outcome;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served = Served{};
    const std::int64_t t0 = now_ns();
    served = start_served(args, rep);
    glaf::serve::Client first;
    if (!first.connect(served.socket).is_ok()) {
      throw BenchError(where(args, "connect after set-up failed"));
    }
    for (int entry = 0; entry < 2; ++entry) {
      const ServeEntry& e = serve_entries()[static_cast<std::size_t>(entry)];
      std::vector<double> call_args;
      std::vector<std::uint16_t> pairs;
      if (e.num_args > 0) {
        const auto pair0 = find_offset_args(args.seed, 1)[0];
        call_args = {pair0.first, pair0.second};
        pairs = {0};
      }
      auto r = first.run(served.session_id.at(e.builtin), e.entry, call_args);
      if (!r.is_ok() || r.value().tier != 1 ||
          !same_bits(r.value().result, golden.value(entry, pairs, 0))) {
        throw BenchError(where(args, std::string("first reply of ") + e.entry +
                                         " is wrong"));
      }
      ++outcome.attempted;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    double settled = 0.0;
    for (const auto& [name, session] : served.session) {
      for (const auto& [tier, at] : session->stats().promotions) {
        if (tier == Tier::kNativeInterp) settled = std::max(settled, at);
      }
    }
    promotion_s.push_back(settled);
  }

  Traffic traffic;
  traffic.served = &served;
  traffic.golden = &golden;
  traffic.ops = &ops;
  traffic.loop = loop;

  const double cpu0 = process_cpu_seconds();
  const auto open = run_phase(Phase::kOpen, traffic, sink, open_s);
  const double open_cpu_s = process_cpu_seconds() - cpu0;
  std::vector<ConnResult> closed;
  const double cpu1 = process_cpu_seconds();
  if (traffic.error.empty()) {
    closed = run_phase(Phase::kClosed, traffic, sink, closed_s);
  }
  const double closed_cpu_s = process_cpu_seconds() - cpu1;
  if (!traffic.error.empty()) throw BenchError(where(args, traffic.error));

  // Open-loop latency from due time; failures count as infinitely late.
  std::vector<double> run_ms, batch_ms, late_ms;
  std::vector<TimedSample> run_timed, batch_timed;
  std::uint64_t failed = 0, refused = 0, calls = 0;
  for (const ConnResult& r : open) {
    refused += r.refused;
    for (const OpRecord& rec : r.records) {
      ++outcome.attempted;
      if (!rec.t.ok) ++failed;
      late_ms.push_back(lateness_ms(rec.t));
      if (rec.kind == OpKind::kRun) {
        run_ms.push_back(latency_from_due_ms(rec.t));
        run_timed.push_back({rec.t.due_ns, run_ms.back()});
        ++calls;
      } else if (rec.kind == OpKind::kBatch) {
        batch_ms.push_back(latency_from_due_ms(rec.t));
        batch_timed.push_back({rec.t.due_ns, batch_ms.back()});
        calls += rec.calls;
      }
    }
  }
  CapacityResult capacity;
  capacity.done_by_window.assign(
      static_cast<std::size_t>(static_cast<std::int64_t>(closed_s * 1e9) /
                               kCapacityWindowNs),
      0);
  for (const ConnResult& r : closed) {
    refused += r.refused;
    capacity.latency_us.merge(r.capacity.latency_us);
    capacity.ok += r.capacity.ok;
    capacity.failed += r.capacity.failed;
    for (std::size_t w = 0; w < r.capacity.done_by_window.size() &&
                            w < capacity.done_by_window.size();
         ++w) {
      capacity.done_by_window[w] += r.capacity.done_by_window[w];
    }
  }
  outcome.attempted += capacity.ok + capacity.failed;
  failed += capacity.failed;
  std::vector<double> window_qps;
  for (const std::uint64_t n : capacity.done_by_window) {
    window_qps.push_back(static_cast<double>(n) * 1e9 /
                         static_cast<double>(kCapacityWindowNs));
  }
  outcome.failed = failed;
  const glaf::serve::Batcher::Stats bstats = served.server->batcher().stats();

  report.note("req_samples", static_cast<double>(run_ms.size()));
  report.note("req_samples_beyond_p99",
              static_cast<double>(samples_beyond(run_ms, 99.0)));
  report.note("batch_samples", static_cast<double>(batch_ms.size()));
  report.note("batch_samples_beyond_p99",
              static_cast<double>(samples_beyond(batch_ms, 99.0)));
  report.note("generator_late_p50_ms", median(late_ms));
  report.note("generator_late_p99_ms", percentile(late_ms, 99.0));
  report.metric("setup_s", median(setup_s), "s");
  report.metric("req_p50_ms", median(run_ms), "ms");
  // Tails: the median over time windows of each window's p99 (one second
  // for single runs, two for the rarer batch frames); the pooled p99s are
  // reported beside them. Capacity: the interquartile mean of the
  // half-second completion rates of the closed phase.
  report.metric("req_p99_ms",
                windowed_percentile(run_timed, kWindowNs, 99.0,
                                    kTailWindowSamples),
                "ms");
  report.metric("req_p99_pooled_ms", percentile(run_ms, 99.0), "ms");
  report.metric("batch_p99_ms",
                windowed_percentile(batch_timed, 2 * kWindowNs, 99.0,
                                    kTailWindowSamples),
                "ms");
  report.metric("batch_p99_pooled_ms", percentile(batch_ms, 99.0), "ms");
  report.metric("capacity_qps", interquartile_mean(window_qps), "1/s");
  report.note("capacity_window_spread", relative_iqr(window_qps));
  // The tracked serve figures come from the capacity phase. At partial
  // load the open-loop latency and CPU cost shift by a quarter to a third
  // depending on whether the guest scheduler spreads the process's threads
  // over the vCPUs or packs them onto one.
  const auto served_ok = static_cast<double>(std::max<std::uint64_t>(
      capacity.ok, 1));
  report.metric("capacity_req_p50_ms",
                capacity.latency_us.percentile(50) / 1e3, "ms");
  report.metric("capacity_cpu_ms_per_req", closed_cpu_s * 1e3 / served_ok,
                "ms");
  report.metric("capacity_pooled_qps",
                static_cast<double>(capacity.ok) / closed_s, "1/s");
  report.metric("cpu_ms_per_req",
                open_cpu_s * 1e3 /
                    static_cast<double>(std::max<std::uint64_t>(calls, 1)),
                "ms");
  report.metric("fail_ratio",
                static_cast<double>(failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(outcome.attempted, 1)),
                "ratio");

  if (args.trace) {
    Replay all;
    std::vector<double> round_trip_us;
    for (const ConnResult& r : open) {
      auto append = [](std::vector<double>& to,
                       const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(all.decode_us, r.replay.decode_us);
      append(all.encode_us, r.replay.encode_us);
      append(all.acquire_us, r.replay.acquire_us);
      append(all.exec_us, r.replay.exec_us);
      append(round_trip_us, r.round_trip_us);
    }
    const double decode = median(all.decode_us);
    const double encode = median(all.encode_us);
    const double acquire = median(all.acquire_us);
    const double exec = median(all.exec_us);
    const double round_trip = median(round_trip_us);
    const double wait = round_trip - (decode + encode + acquire + exec);
    report.metric("serve.decode_us", decode, "us");
    report.metric("serve.encode_us", encode, "us");
    report.metric("serve.acquire_us", acquire, "us");
    report.metric("serve.exec_us", exec, "us");
    report.metric("serve.round_trip_us", round_trip, "us");
    report.metric("serve.wait_us", wait, "us");
    report.metric("jit.call_ms", exec / 1e3, "ms");
    report.metric("serve.promotion_s", median(promotion_s), "s");
    // Untraced and traced slots alternate; the overhead compares the two.
    std::vector<double> traced_ms, untraced_ms;
    for (const ConnResult& r : open) {
      for (const OpRecord& rec : r.records) {
        if (rec.kind != OpKind::kRun || !rec.t.ok) continue;
        (rec.traced ? traced_ms : untraced_ms)
            .push_back(latency_from_due_ms(rec.t));
      }
    }
    report.metric("trace.overhead_pct",
                  (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
    // The replayed layers are the spans inside a request; what they do
    // not cover is transport, admission, the batcher queue and the write.
    report.metric("trace.uncovered_share",
                  round_trip > 0 ? wait / round_trip : 0.0, "ratio");
    report.metric("runtime.cpu_per_wall", open_cpu_s / open_s, "ratio");
    report.metric("runtime.fork_join_us", fork_join_us(kServePoolThreads),
                  "us");
    report.metric("jit.fallback_calls", 0.0, "count");
    // Sessions run serial kernels: no region reaches the gate.
    report.metric("jit.regions_dispatched", 0.0, "count");
    report.metric("jit.regions_gated", 0.0, "count");
    report.metric("jit.gate_serial_share", 0.0, "ratio");

    // Compile path of both served programs at the sessions' own options.
    Tracer& tracer = sink.make();
    CompilePathTimes total;
    std::uint64_t id = 1u << 30;
    for (const auto& [name, session] : served.session) {
      const glaf::InterpOptions opts =
          session->machine_options(Tier::kNativeInterp);
      total = total + time_compile_path(session->program(), opts,
                                        args.work_dir + "/cache-layers-" + name,
                                        kSetupReps, tracer, id);
      id += 16;
    }
    record_compile_path(report, total);
  }
  const glaf::jit::KernelCacheStats cache = glaf::jit::kernel_cache_stats();
  report.metric("jit.cache_hits", static_cast<double>(cache.hits), "count");
  report.metric("jit.cache_compiles", static_cast<double>(cache.compiles),
                "count");
  report.metric("serve.avg_batch",
                bstats.batches > 0 ? static_cast<double>(bstats.requests) /
                                         static_cast<double>(bstats.batches)
                                   : 0.0,
                "ratio");
  report.metric("serve.max_batch", static_cast<double>(bstats.max_batch),
                "count");
  report.metric("serve.refused", static_cast<double>(refused), "count");
  report.metric("serve.deadline_expired",
                static_cast<double>(bstats.deadline_expired), "count");
  report.metric("serve.client_retries", 0.0, "count");
  served.server->stop();
  return outcome;
}

}  // namespace perfbench
