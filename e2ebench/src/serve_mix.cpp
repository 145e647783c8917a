// serve_mix: `rootstore serve --index FILE` under a seeded request mix.
//
// The distinct request pool is four times the server's 1024-entry response
// cache and is drawn Zipf-skewed, so the run mixes cache hits and misses;
// most requests are index lookups, a minority are the wide landscape
// answers and the certificate-carrying verify requests.  An open-loop
// phase at a fixed offered rate gives latency from each request's due time
// and a closed-loop phase at the same connection count gives per-request
// latency (both printed); a pipelined client, most of the run, gives the
// gated time and CPU per block of requests.  Every reply must equal an
// in-process QueryEngine's answer over the same index file.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/loadgen.h"
#include "e2ebench/src/proc.h"
#include "src/exec/thread_pool.h"
#include "src/query/engine.h"
#include "src/query/index_io.h"
#include "src/query/request.h"
#include "src/serve/server.h"
#include "src/store/interner.h"
#include "src/synth/chain_gen.h"
#include "src/synth/incidents.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/user_agents.h"
#include "src/util/hex.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rs::query::Op;

constexpr std::size_t kPoolSize = 4096;       // distinct request lines
constexpr std::size_t kServerCache = 1024;    // `serve --cache`, its default
// Popularity skew: within the 0.64-0.83 range Breslau et al. measured for
// web proxy request streams ("Web Caching and Zipf-like Distributions",
// INFOCOM 1999).  No measurement of root-store query traffic exists.
constexpr double kZipfExponent = 0.8;
// Offered open-loop rate: about 40% of the closed-loop capacity of this mix
// at 1 loop + 1 connection on the 4-CPU reference machine (6,000-12,000/s
// as the load of other tenants varied).
// Half of it left no headroom when other tenants of the shared host slowed
// the CPUs by a third, and queueing then dominated the tail.
constexpr double kOpenLoopRate = 2500;
constexpr std::size_t kBlockRequests = 10000;  // wall_s / cpu_s unit
// Requests a pipelining client keeps in flight: enough that the server
// always has some queued while the client checks replies.
constexpr std::size_t kPipelineDepth = 64;
// Latency is summarized per window and the window medians are reported: a
// burst of interference from other tenants of a shared machine then moves
// one window's tail, not the run's.
constexpr double kWindowS = 0.5;
constexpr std::size_t kMinWindowSamples = 1000;  // >= 10 beyond p99

struct OpShare {
  Op op;
  const char* name;
  int weight;  // out of kTotalWeight
};

// Mostly lookups, a minority of wide landscape answers and of verify
// requests that carry certificates (KB-sized lines and answers).  No
// traffic trace of a root-store service exists to take shares from, so the
// mix is the plainest of that shape, an assumption: equal shares within
// each group, each lookup op twice as frequent as each minority op
// (lookups 75%, landscape 12.5%, verify 12.5%).
constexpr OpShare kMix[] = {
    {Op::kIsTrusted, "is_trusted", 2},
    {Op::kStoreAt, "store_at", 2},
    {Op::kDiff, "diff", 2},
    {Op::kLineage, "lineage", 2},
    {Op::kProvidersTrusting, "providers_trusting", 2},
    {Op::kAgentStore, "agent_store", 2},
    {Op::kAgreementAt, "agreement_at", 1},
    {Op::kCtCoverage, "ct_coverage", 1},
    {Op::kVerifyChain, "verify_chain", 1},
    {Op::kFirstRejectedAt, "first_rejected_at", 1},
};
constexpr int kTotalWeight = [] {
  int total = 0;
  for (const OpShare& share : kMix) total += share.weight;
  return total;
}();

// Client threads and server event loops: together at most the machine's
// cores.  One of each leaves two of four cores free, so the request
// ping-pong does not stall whenever the host takes one virtual CPU away
// (2 + 2 halved the closed-loop rate in 3 runs of 10 on a shared host).
constexpr std::size_t kServerLoops = 1;
constexpr std::size_t kConnections = 1;  // one client thread each

const char* layer_of(Op op) {
  switch (op) {
    case Op::kAgreementAt:
    case Op::kCtCoverage:
      return "landscape.engine";
    case Op::kVerifyChain:
    case Op::kFirstRejectedAt:
      return "verify.engine";
    default:
      return "query.engine";
  }
}

constexpr rs::query::Scope kScopes[] = {
    rs::query::Scope::kTls, rs::query::Scope::kEmail, rs::query::Scope::kCode,
    rs::query::Scope::kPresent};

struct Pool {
  RequestSet requests;
  std::vector<Op> ops;
  std::vector<std::size_t> per_op;  // count per kMix entry
};

/// Draws kPoolSize distinct valid request lines from the seeded scenario.
Pool build_pool(const rs::store::StoreDatabase& db,
                rs::synth::PaperScenario& scenario,
                const rs::query::QueryEngine& engine, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::vector<std::string> providers = db.providers();
  std::vector<std::string> fps;
  const auto roots = db.all_tls_roots_ever();
  for (const auto& fp : roots.items()) {
    fps.push_back(rs::util::hex_encode(fp));
  }
  std::vector<rs::synth::UserAgentGroup> agents;
  for (const auto& a : rs::synth::user_agent_population()) {
    if (a.included && !a.provider.empty()) agents.push_back(a);
  }
  auto chain_config = rs::synth::default_chain_config(db, seed);
  for (const auto& incident : rs::synth::high_severity_incidents()) {
    for (const auto& root_id : incident.root_ids) {
      if (auto cert = scenario.factory().find(root_id)) {
        chain_config.incident_anchors.emplace_back(
            incident.name + "/" + root_id, std::move(cert));
      }
    }
  }
  const auto chains = rs::synth::build_chain_cases(chain_config);
  const auto date_in = [&](const std::string& provider) {
    const auto* history = db.find(provider);
    const auto span = static_cast<std::size_t>(history->last_date() -
                                               history->first_date()) + 1;
    return (history->first_date() + static_cast<std::int64_t>(pick(span)))
        .to_string();
  };

  std::vector<int> slots;
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    slots.insert(slots.end(), static_cast<std::size_t>(kMix[i].weight),
                 static_cast<int>(i));
  }
  Pool pool;
  pool.per_op.assign(std::size(kMix), 0);
  std::set<std::string> seen;
  std::size_t attempts = 0;
  std::string last_rejected;
  while (pool.requests.lines.size() < kPoolSize) {
    // Fixed op quotas keep the op shares identical across seeds.
    const auto slot = static_cast<std::size_t>(
        slots[pool.requests.lines.size() * slots.size() / kPoolSize]);
    if (++attempts > 50 * kPoolSize) {
      throw ProgramError(std::string("cannot draw distinct valid ") +
                         kMix[slot].name + " requests; last rejected: " +
                         last_rejected);
    }
    const Op op = kMix[slot].op;
    const std::string& provider = providers[pick(providers.size())];
    const std::string date = date_in(provider);
    const std::string fp = fps[pick(fps.size())];
    std::string line;
    switch (op) {
      case Op::kIsTrusted:
        line = "{\"op\":\"is_trusted\",\"provider\":\"" + provider +
               "\",\"fp\":\"" + fp + "\",\"date\":\"" + date + "\"}";
        break;
      case Op::kStoreAt:
        line = "{\"op\":\"store_at\",\"provider\":\"" + provider +
               "\",\"date\":\"" + date + "\"}";
        break;
      case Op::kDiff:
        line = "{\"op\":\"diff\",\"provider\":\"" + provider +
               "\",\"date_a\":\"" + date + "\",\"date_b\":\"" +
               date_in(provider) + "\"}";
        break;
      case Op::kLineage:
        // One fingerprint has one lineage per scope; the scope widens the
        // distinct space past the few hundred roots.
        line = "{\"op\":\"lineage\",\"fp\":\"" + fp + "\",\"scope\":\"" +
               rs::query::to_string(kScopes[pick(std::size(kScopes))]) + "\"}";
        break;
      case Op::kProvidersTrusting:
        line = "{\"op\":\"providers_trusting\",\"fp\":\"" + fp +
               "\",\"date\":\"" + date + "\"}";
        break;
      case Op::kAgentStore: {
        const auto& a = agents[pick(agents.size())];
        line = "{\"op\":\"agent_store\",\"user_agent\":\"" + a.agent +
               "\",\"os\":\"" + a.os + "\",\"date\":\"" + date + "\"}";
        break;
      }
      case Op::kAgreementAt:
        line = "{\"op\":\"agreement_at\",\"date\":\"" + date + "\"}";
        break;
      case Op::kCtCoverage:
        line = "{\"op\":\"ct_coverage\",\"provider\":\"" + provider +
               "\",\"date\":\"" + date + "\"}";
        break;
      case Op::kVerifyChain:
      case Op::kFirstRejectedAt: {
        const auto& c = chains[pick(chains.size())];
        rs::query::Request r;
        r.op = op;
        r.provider = provider;
        if (op == Op::kVerifyChain) r.date = rs::util::Date::parse(date);
        // first_rejected_at has no date: the scope widens its distinct
        // space past providers x chain cases.
        if (op == Op::kFirstRejectedAt) {
          r.scope = kScopes[pick(std::size(kScopes))];
        }
        r.leaf = c.leaf->der();
        for (const auto& cert : c.pool) r.pool.push_back(cert->der());
        std::sort(r.pool.begin(), r.pool.end());
        r.pool.erase(std::unique(r.pool.begin(), r.pool.end()), r.pool.end());
        line = rs::query::canonical_request(r);
        break;
      }
      default:
        throw ProgramError("op outside the mix");
    }
    if (!seen.insert(line).second) continue;
    std::string answer = engine.handle_json(line);
    if (rs::query::QueryEngine::is_error_response(answer)) {
      last_rejected = line.substr(0, 200) + " -> " + answer.substr(0, 200);
      continue;
    }
    pool.requests.lines.push_back(std::move(line));
    pool.requests.expected.push_back(std::move(answer));
    pool.ops.push_back(op);
    ++pool.per_op[slot];
  }
  return pool;
}

struct Inputs {
  fs::path index_path;
  Pool pool;
  std::optional<rs::query::QueryEngine> engine;  // the oracle
};

Inputs make_inputs(const Config& config, Tracer* tracer) {
  Inputs in;
  in.index_path = config.work / "serve.rsix";
  std::optional<rs::synth::PaperScenario> scenario;
  {
    SpanScope span(tracer, "synth.scenario");
    scenario.emplace(rs::synth::build_paper_scenario(config.seed));
  }
  const rs::store::StoreDatabase& db = scenario->database();
  {
    rs::exec::ThreadPool pool(kStudyWorkers);
    SpanScope span(tracer, "query.trust_index_build");
    const auto index = rs::query::TrustIndex::build(
        db, rs::store::CertInterner::from_database(db), &pool);
    auto written = rs::query::TrustIndexIO::write_file(index, in.index_path);
    if (!written.ok()) throw ProgramError(written.error());
  }
  {
    SpanScope span(tracer, "query.index_load");
    auto loaded = rs::query::TrustIndexIO::load_file(in.index_path);
    if (!loaded.ok()) throw ProgramError(loaded.message());
    in.engine.emplace(std::move(loaded).take(),
                      rs::synth::user_agent_population());
  }
  in.pool = build_pool(db, *scenario, *in.engine, config.seed);
  return in;
}

/// A running `rootstore serve` over the index file.
class ServerProcess {
 public:
  ServerProcess(const Config& config, const fs::path& index,
                std::size_t loops) {
    port_file_ = config.work / "serve.port";
    const std::vector<std::string> argv = {
        config.rootstore, "serve", "--index", index.string(),
        "--threads", std::to_string(loops),
        "--cache", std::to_string(kServerCache),
        "--port-file", port_file_.string()};
    std::error_code ec;
    fs::remove(port_file_, ec);
    if (!child_.spawn(argv, (config.work / "serve.log").string())) {
      throw ProgramError("cannot start " + config.rootstore);
    }
    const auto port = wait_for_port_file(port_file_.string(), 30000);
    if (!port) throw ProgramError("server did not publish its port");
    port_ = *port;
  }

  /// One request on a fresh connection (the first one proves the server
  /// accepts and answers).
  std::string ask(const std::string& line) const {
    const int fd = connect_loopback(port_);
    if (fd < 0) throw ProgramError("cannot connect to the server");
    std::string buffer, reply;
    const bool ok = roundtrip(fd, line, buffer, reply);
    ::close(fd);
    if (!ok) throw ProgramError("server closed the connection");
    return reply;
  }

  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return child_.pid(); }
  bool stop() { return child_.stop() == 0; }

 private:
  fs::path port_file_;
  ChildProcess child_;
  std::uint16_t port_ = 0;
};

std::uint64_t stat_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

double cache_hit_ratio(const ServerProcess& server) {
  const std::string stats = server.ask("{\"op\":\"server_stats\"}");
  const double hits = static_cast<double>(stat_field(stats, "cache_hits"));
  const double misses = static_cast<double>(stat_field(stats, "cache_misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

void count_load(Outcome& out, const LoadResult& r) {
  out.attempted += r.attempted;
  out.failed += r.failed;
  if (out.first_failure.empty()) out.first_failure = r.first_failure;
}

/// Popularity order of the pool: every stretch of ranks carries the ops in
/// their mix shares (smooth weighted round robin over the op classes), and a
/// seeded shuffle within each class picks which requests.  The share of
/// expensive requests among hits and among misses is then the same for
/// every seed; only the requests themselves change.
std::vector<std::size_t> stratified_ranks(const Pool& pool, std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> by_class(std::size(kMix));
  for (std::size_t i = 0; i < pool.ops.size(); ++i) {
    for (std::size_t c = 0; c < std::size(kMix); ++c) {
      if (kMix[c].op == pool.ops[i]) by_class[c].push_back(i);
    }
  }
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (auto& members : by_class) std::shuffle(members.begin(), members.end(), rng);
  std::vector<std::size_t> next(std::size(kMix), 0);
  std::vector<int> credit(std::size(kMix), 0);
  std::vector<std::size_t> ranks;
  while (ranks.size() < pool.ops.size()) {
    std::size_t best = std::size(kMix);
    for (std::size_t c = 0; c < std::size(kMix); ++c) {
      if (next[c] == by_class[c].size()) continue;  // class used up
      credit[c] += kMix[c].weight;
      if (best == std::size(kMix) || credit[c] > credit[best]) best = c;
    }
    credit[best] -= kTotalWeight;
    ranks.push_back(by_class[best][next[best]++]);
  }
  return ranks;
}

std::string describe_pool(const Pool& pool, const ZipfTable& zipf) {
  std::string s;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pool: %zu distinct requests vs %zu cache entries (top %zu "
                "ranks carry %.0f%% of draws), zipf s=%.2f; op shares:",
                pool.requests.lines.size(), kServerCache, kServerCache,
                100 * zipf.head_mass(kServerCache), kZipfExponent);
  s = buf;
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    std::snprintf(buf, sizeof buf, " %s=%zu", kMix[i].name, pool.per_op[i]);
    s += buf;
  }
  std::snprintf(buf, sizeof buf,
                "; topology: %zu server loops + %zu client connections "
                "(one thread each) on %u cores",
                kServerLoops, kConnections,
                std::thread::hardware_concurrency());
  return s + buf;
}

/// In-process layer pass: for each drawn request, the engine's own parse,
/// canonicalize and answer calls, then the serve layer's respond_line
/// (cache included) — spans of one request share its id.
std::uint64_t in_process_pass(const Inputs& in, const ZipfTable& zipf,
                              std::uint64_t seed, TracedRun& trace,
                              Outcome& out, std::size_t draws,
                              std::size_t loops) {
  Tracer* t = trace.tracer();
  rs::serve::ServerOptions options;
  options.num_threads = loops;
  options.cache_capacity = kServerCache;
  auto engine = std::make_shared<const rs::query::QueryEngine>(*in.engine);
  rs::serve::Server server(engine, options);
  std::mt19937_64 rng(seed ^ 0xfeedULL);
  double bytes = 0;
  std::uint64_t root = 0;
  {
    SpanScope pass(t, "bench.pass");
    root = pass.id();
    for (std::size_t i = 0; i < draws; ++i) {
      const std::size_t k = zipf.sample(rng);
      const std::string& line = in.pool.requests.lines[k];
      const std::uint64_t id = i + 1;
      SpanScope request(t, "bench.request", id);
      std::optional<rs::query::Request> parsed;
      {
        SpanScope span(t, "query.parse", id);
        auto r = rs::query::parse_request(line);
        if (!r.ok()) throw ProgramError("pool request does not parse");
        parsed.emplace(std::move(r).take());
      }
      {
        SpanScope span(t, "query.canonical", id);
        (void)rs::query::canonical_request(*parsed);
      }
      std::string answer;
      {
        SpanScope span(t, layer_of(in.pool.ops[k]), id);
        answer = in.engine->handle(*parsed);
      }
      std::string served;
      {
        SpanScope span(t, "serve.respond_line", id);
        served = server.respond_line(line);
      }
      out.check(answer == in.pool.requests.expected[k] &&
                    served == in.pool.requests.expected[k],
                "in-process answer differs for " + line.substr(0, 120));
      bytes += static_cast<double>(served.size());
    }
  }
  out.set("serve.response_bytes", bytes / static_cast<double>(draws), "bytes");
  return root;
}

}  // namespace

Outcome run_serve_mix(const Config& config) {
  Outcome out;
  if (kServerLoops + kConnections > std::thread::hardware_concurrency()) {
    throw ProgramError("client threads + server loops exceed the cores");
  }
  std::optional<TracedRun> trace;
  if (config.trace) trace.emplace(config);
  Tracer* tracer = trace ? trace->tracer() : nullptr;
  const Inputs in = make_inputs(config, tracer);
  const ZipfTable zipf(kZipfExponent, stratified_ranks(in.pool, config.seed));
  out.note(describe_pool(in.pool, zipf));

  LoadOptions load;
  load.connections = kConnections;
  load.seed = config.seed;

  if (config.trace) {
    TracedRun& tr = *trace;
    out.set("synth.scenario_s", tr.span_s("synth.scenario"), "s");
    out.set("query.trust_index_build_s", tr.span_s("query.trust_index_build"), "s");
    out.set("query.index_load_s", tr.span_s("query.index_load"), "s");
    ServerProcess server(config, in.index_path, kServerLoops);
    load.port = server.port();
    load.seconds = 0.5;
    count_load(out, run_closed_loop(in.pool.requests, zipf, load));  // warm-up
    load.seconds = 2;
    const LoadResult plain = run_closed_loop(in.pool.requests, zipf, load);
    load.tracer = tracer;
    const LoadResult traced = run_closed_loop(in.pool.requests, zipf, load);
    load.rate_per_s = kOpenLoopRate;
    const LoadResult open = run_open_loop(in.pool.requests, zipf, load);
    for (const auto* r : {&plain, &traced, &open}) count_load(out, *r);
    const double qps_plain = static_cast<double>(plain.latency_us.size()) /
                             (static_cast<double>(plain.end_ns - plain.start_ns) / 1e9);
    const double qps_traced = static_cast<double>(traced.latency_us.size()) /
                              (static_cast<double>(traced.end_ns - traced.start_ns) / 1e9);
    out.set("obs.trace_overhead_frac", qps_plain / qps_traced - 1, "ratio");
    const LatencySummary lag = summarize(open.lag_us, 0);
    out.set("loadgen.lag_p99_us", lag.reported.value, "us");
    out.note("generator lateness (open loop, traced): " + lag.describe("us"));
    out.set("serve.cache_hit_ratio", cache_hit_ratio(server), "ratio");
    out.check(server.stop(), "server did not drain cleanly");

    tr.begin_program_trace();
    std::int64_t t0 = now_ns();
    const std::uint64_t root =
        in_process_pass(in, zipf, config.seed, tr, out, 20000, kServerLoops);
    std::int64_t t1 = now_ns();
    tr.end_program_trace();
    out.set("obs.unattributed_frac", tr.unattributed_frac(t0, t1), "ratio");
    tr.set_self_fracs(out, root);
    probe_index_refresh(config, tr, out);
    const double respond_p50 = median(tr.span_us("serve.respond_line"));
    out.set("query.parse_us", median(tr.span_us("query.parse")), "us");
    out.set("query.canonical_us", median(tr.span_us("query.canonical")), "us");
    out.set("query.engine_us", median(tr.span_us("query.engine")), "us");
    out.set("landscape.engine_us", median(tr.span_us("landscape.engine")), "us");
    out.set("verify.engine_us", median(tr.span_us("verify.engine")), "us");
    out.set("serve.respond_line_us", respond_p50, "us");
    out.set("serve.transport_us",
            summarize(plain.latency_us, 0).p50.value - respond_p50, "us");
    tr.write(out);
    return out;
  }

  // Set-up as a user pays it: start the server on the index file and wait
  // for its first answer.  31 starts of ~10 ms each (the median of 15
  // moved 30%, IQR/median over 10 seeds, on a shared host); the last server
  // is measured.
  std::vector<double> starts;
  std::optional<ServerProcess> server;
  for (int i = 0; i < 31; ++i) {
    if (server) out.check(server->stop(), "server did not drain cleanly");
    server.reset();
    const std::int64_t t0 = now_ns();
    server.emplace(config, in.index_path, kServerLoops);
    const std::string stats = server->ask("{\"op\":\"stats\"}");
    starts.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.check(!rs::query::QueryEngine::is_error_response(stats),
              "stats request failed");
  }
  out.set("setup_s", median(starts), "s");
  load.port = server->port();

  // Warm-up fills the response cache; its replies are checked too.
  load.seconds = 1;
  count_load(out, run_closed_loop(in.pool.requests, zipf, load));

  // Latency is printed with its sample counts, not gated: on the shared
  // 4-CPU reference host the closed-loop p99 moved 27-104% and the p50
  // 3-28% (IQR/median over 5 seeds) as other tenants slowed the CPUs,
  // because every request waits on two thread wake-ups.  The open loop's
  // tail swung more, queueing amplifying every slowdown.  Each latency
  // phase gets an eighth of the run (at 50 s, ~15,600 open-loop requests,
  // over 150 beyond the p99), so the gated phase averages over the rest.
  const double latency_s = config.seconds / 8;
  load.seconds = latency_s;
  load.rate_per_s = kOpenLoopRate;
  const LoadResult open = run_open_loop(in.pool.requests, zipf, load);
  count_load(out, open);
  char buf[200];
  std::snprintf(buf, sizeof buf, "open loop at %.0f req/s offered for %.1f s, "
                "timed from each request's due time: ",
                kOpenLoopRate, latency_s);
  out.note(buf + summarize(open.latency_us, open.failed).describe("us"));
  out.note("generator lateness: " + summarize(open.lag_us, 0).describe("us"));

  load.rate_per_s = 0;
  load.seed = config.seed + 1;  // fresh draw streams for each phase
  const LoadResult closed = run_closed_loop(in.pool.requests, zipf, load);
  count_load(out, closed);
  const double closed_s =
      static_cast<double>(closed.end_ns - closed.start_ns) / 1e9;
  std::snprintf(buf, sizeof buf, "closed loop for %.1f s: %.0f replies/s; ",
                closed_s, static_cast<double>(closed.latency_us.size()) / closed_s);
  out.note(buf + summarize(closed.latency_us, closed.failed).describe("us"));
  const auto windows = windowed(closed, kWindowS, kMinWindowSamples);
  if (!windows.empty()) {
    std::vector<double> p50s, p99s;
    for (const auto& w : windows) {
      p50s.push_back(w.p50.value);
      p99s.push_back(w.tail.value);
    }
    std::snprintf(buf, sizeof buf,
                  "closed loop per %.1f s window (%zu windows, each >= %zu "
                  "samples): median p50 %.1f us, median p99 %.1f us",
                  kWindowS, windows.size(), kMinWindowSamples, median(p50s),
                  median(p99s));
    out.note(buf);
  }

  // The gated phase: a pipelined client, the rest of the run.
  load.seconds = config.seconds - 2 * latency_s;
  load.seed = config.seed + 2;
  load.depth = kPipelineDepth;
  const double cpu0 = proc_cpu_s(server->pid());
  const LoadResult piped = run_pipelined(in.pool.requests, zipf, load);
  const double server_cpu = proc_cpu_s(server->pid()) - cpu0;
  count_load(out, piped);
  const auto completed = static_cast<double>(piped.done_ns.size());
  // wall_s: median time to complete each consecutive block of requests.
  std::vector<std::int64_t> done = piped.done_ns;
  std::sort(done.begin(), done.end());
  std::vector<double> blocks;
  std::int64_t block_start = piped.start_ns;
  for (std::size_t i = kBlockRequests; i <= done.size(); i += kBlockRequests) {
    blocks.push_back(static_cast<double>(done[i - 1] - block_start) / 1e9);
    block_start = done[i - 1];
  }
  if (blocks.empty()) throw ProgramError("pipelined phase shorter than a block");
  out.set("wall_s", median(blocks), "s");
  out.set("cpu_s", server_cpu * kBlockRequests / completed, "s");
  out.set("peak_rss_mb", peak_rss_mib(server->pid()), "MiB");
  const double piped_s = static_cast<double>(piped.end_ns - piped.start_ns) / 1e9;
  std::snprintf(buf, sizeof buf,
                "pipelined (%zu in flight) for %.1f s: %.0f replies/s; wall_s "
                "and cpu_s (server process) are per %zu requests over %zu "
                "block(s)",
                kPipelineDepth, piped_s, completed / piped_s, kBlockRequests,
                blocks.size());
  out.note(buf);
  std::snprintf(buf, sizeof buf, "server cache hit ratio %.3f",
                cache_hit_ratio(*server));
  out.note(buf);
  out.check(server->stop(), "server did not drain cleanly");
  return out;
}

}  // namespace e2e
