// Serve-layer integration tests: the epoll socket path must answer
// byte-identically to the in-process engine under concurrent clients,
// survive malformed and oversized input, honor backpressure, answer batch
// envelopes, hot-swap engines mid-flight without mixing epochs, and drain
// gracefully on stop().  The suite is labelled `tsan` — it races real
// client threads against the event-loop pool and the RCU engine flip.
#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/query/engine.h"
#include "src/store/database.h"
#include "tests/serve/serve_test_support.h"

namespace rs::serve {
namespace {

using rs::query::QueryEngine;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;
using test_support::Client;
using test_support::make_cert;
using test_support::make_db;
using test_support::request_mix;
using test_support::ServerFixture;

/// A second, distinguishable world for hot-swap tests: extra provider, so
/// e.g. {"op":"stats"} answers differently than make_db()'s engine.
StoreDatabase make_db_b() {
  StoreDatabase db = make_db();
  ProviderHistory h("Q");
  Snapshot s;
  s.provider = "Q";
  s.date = Date::ymd(2021, 1, 1);
  s.version = "1";
  s.entries = {rs::store::make_tls_anchor(make_cert(3))};
  h.add(std::move(s));
  db.add(std::move(h));
  return db;
}

/// The acceptance criterion: N concurrent clients each replay the mix and
/// every socket response must equal the in-process engine's bytes.
void expect_byte_identical(std::size_t num_clients) {
  ServerFixture f;
  ASSERT_NE(f.port, 0);
  const auto mix = request_mix();
  std::vector<std::vector<std::string>> got(num_clients);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&f, &mix, &got, c] {
      Client client(f.port);
      if (!client.connected()) return;
      for (std::size_t lap = 0; lap < 3; ++lap) {
        for (const auto& line : mix) {
          auto response = client.roundtrip(line);
          if (!response) return;
          got[c].push_back(*response);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t c = 0; c < num_clients; ++c) {
    ASSERT_EQ(got[c].size(), mix.size() * 3) << "client " << c;
    for (std::size_t lap = 0; lap < 3; ++lap) {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        EXPECT_EQ(got[c][lap * mix.size() + i], f.engine->handle_json(mix[i]))
            << "client " << c << " request " << mix[i];
      }
    }
  }
  f.server->stop();
}

TEST(Server, ByteIdenticalToEngineOneClient) { expect_byte_identical(1); }
TEST(Server, ByteIdenticalToEngineFourClients) { expect_byte_identical(4); }
TEST(Server, ByteIdenticalToEngineEightClients) { expect_byte_identical(8); }

TEST(Server, ByteIdenticalWithSingleEventLoop) {
  // num_threads 0 clamps to one event loop, which then owns accept AND all
  // connections.  The bytes contract is unchanged.
  ServerOptions options;
  options.num_threads = 0;
  ServerFixture f(options);
  ASSERT_NE(f.port, 0);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  for (const auto& line : request_mix()) {
    auto response = client.roundtrip(line);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, f.engine->handle_json(line));
  }
  f.server->stop();
}

TEST(Server, PipelinedRequestsAnswerInOrder) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto mix = request_mix();
  std::string burst;
  for (const auto& line : mix) burst += line + "\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (const auto& line : mix) {
    auto response = client.read_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, f.engine->handle_json(line));
  }
  f.server->stop();
}

TEST(Server, OversizedLineGetsStructuredErrorThenClose) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  // The transport cap now admits a full batch line, so the flood must
  // exceed kMaxBatchBytes (not kMaxRequestBytes) to trip it.
  const std::string huge(rs::query::kMaxBatchBytes + 100, 'x');
  ASSERT_TRUE(client.send_raw(huge));  // no newline: unterminated flood
  auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(QueryEngine::is_error_response(*response));
  EXPECT_NE(response->find("\"code\":\"oversized\""), std::string::npos);
  // The connection closes after the error (framing is lost).
  EXPECT_FALSE(client.read_line().has_value());
  f.server->stop();
}

TEST(Server, SingleRequestOverOldCapStillAnswersBadRequest) {
  // A non-batch line above kMaxRequestBytes but under the transport cap is
  // framed fine; the parser rejects it and the connection stays usable.
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string big =
      R"({"op":"stats","pad":")" +
      std::string(rs::query::kMaxRequestBytes, 'y') + R"("})";
  auto response = client.roundtrip(big);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":\"bad_request\""), std::string::npos);
  // Still open: the next request answers normally.
  auto next = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, f.engine->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

TEST(Server, EofMidRequestAnswersBadRequest) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(R"({"op":"stats")"));  // no closing newline
  client.half_close();
  auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":\"bad_request\""), std::string::npos);
  f.server->stop();
}

TEST(Server, CacheHitsAreCountedAndStatsServed) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string line =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  // Same canonical request twice: first misses, second hits.
  const auto first = client.roundtrip(line);
  const auto second = client.roundtrip(line);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  // Spelling the default scope explicitly still hits the same entry.
  const auto third = client.roundtrip(
      R"({"op":"store_at","provider":"P","scope":"tls","date":"2019-06-01"})");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, *first);

  const auto stats = client.roundtrip(R"({"op":"server_stats"})");
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"op\":\"server_stats\""), std::string::npos);
  EXPECT_NE(stats->find("\"cache_hits\":2"), std::string::npos);
  EXPECT_NE(stats->find("\"cache_shards\":"), std::string::npos);
  EXPECT_NE(stats->find("\"epoch\":0"), std::string::npos);

  const ServerStats s = f.server->stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_GE(s.cache_misses, 1u);
  f.server->stop();
}

TEST(Server, LandscapeOpsShareOneCacheSlotAcrossSpellings) {
  // agreement_at/ct_coverage ride the op-agnostic canonical cache key:
  // whitespace, field order, and an explicit default scope must all hit
  // the entry the first spelling populated.
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto first =
      client.roundtrip(R"({"op":"agreement_at","date":"2019-06-01"})");
  const auto spaced = client.roundtrip(
      R"({ "op" : "agreement_at" , "scope" : "tls" , "date" : "2019-06-01" })");
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(*spaced, *first);
  const auto ct =
      client.roundtrip(R"({"op":"ct_coverage","provider":"P","date":"2020-06-01"})");
  const auto ct_reordered = client.roundtrip(
      R"({"op":"ct_coverage","date":"2020-06-01","scope":"tls","provider":"P"})");
  ASSERT_TRUE(ct.has_value());
  ASSERT_TRUE(ct_reordered.has_value());
  EXPECT_EQ(*ct_reordered, *ct);
  EXPECT_EQ(f.server->stats().cache_hits, 2u);
  f.server->stop();
}

TEST(Server, ErrorsAreNeverCached) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string bad =
      R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})";
  ASSERT_TRUE(client.roundtrip(bad).has_value());
  ASSERT_TRUE(client.roundtrip(bad).has_value());
  EXPECT_EQ(f.server->stats().cache_hits, 0u);
  f.server->stop();
}

TEST(Server, StopDrainsInFlightRequestsAndRefusesNewConnections) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  // Prove the connection is live, then stop the server while the client
  // sits idle: stop() must close it and return rather than hang.
  ASSERT_TRUE(client.roundtrip(R"({"op":"stats"})").has_value());
  f.server->stop();
  EXPECT_FALSE(f.server->running());
  // The drained connection reads EOF.
  EXPECT_FALSE(client.read_line().has_value());
  // stop() is idempotent.
  f.server->stop();
}

TEST(Server, RespondLineMatchesSocketSemantics) {
  ServerFixture f;
  const std::string line = R"({"op":"stats"})";
  EXPECT_EQ(f.server->respond_line(line), f.engine->handle_json(line));
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Batch protocol

std::string make_batch(const std::vector<std::string>& items) {
  std::string line = R"({"op":"batch","requests":[)";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += items[i];
  }
  line += "]}";
  return line;
}

TEST(ServerBatch, BatchMatchesEngineAndAnswersInOrder) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto mix = request_mix();
  // Drop the non-JSON garbage line: inside a batch, items must be objects
  // (the envelope parser frames by braces).
  std::vector<std::string> items(mix.begin(), mix.end() - 1);
  const std::string line = make_batch(items);
  auto response = client.roundtrip(line);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, f.engine->handle_json(line));
  EXPECT_NE(response->find("\"op\":\"batch\""), std::string::npos);
  EXPECT_NE(response->find("\"count\":" + std::to_string(items.size())),
            std::string::npos);
  EXPECT_EQ(f.server->stats().batch_items, items.size());
  f.server->stop();
}

TEST(ServerBatch, PerItemErrorsAreIsolatedToTheirSlot) {
  ServerFixture f;
  const std::string good = R"({"op":"stats"})";
  const std::string bad = R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})";
  const std::string line = make_batch({good, bad, good});
  const std::string response = f.server->respond_line(line);
  // The envelope itself is not an error; the bad item's slot carries one.
  EXPECT_FALSE(QueryEngine::is_error_response(response));
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_NE(response.find("\"code\":\"unknown_provider\""), std::string::npos);
  EXPECT_NE(response.find("\"op\":\"stats\""), std::string::npos);
  f.server->stop();
}

TEST(ServerBatch, NestedBatchesAreRejectedPerSlot) {
  ServerFixture f;
  const std::string inner = make_batch({R"({"op":"stats"})"});
  const std::string line = make_batch({inner});
  const std::string response = f.server->respond_line(line);
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_NE(response.find("batch requests may not nest"), std::string::npos);
  f.server->stop();
}

TEST(ServerBatch, OverCapBatchIsRejectedWhole) {
  ServerFixture f;
  std::vector<std::string> items(rs::query::kMaxBatchRequests + 1,
                                 R"({"op":"stats"})");
  const std::string line = make_batch(items);
  const std::string response = f.server->respond_line(line);
  EXPECT_TRUE(QueryEngine::is_error_response(response));
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_EQ(f.server->stats().batch_items, 0u);
  f.server->stop();
}

TEST(ServerBatch, BatchItemsShareTheResponseCache) {
  ServerFixture f;
  const std::string item =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  // Four copies in one batch: first misses, the rest hit; a repeat batch
  // hits all four times.
  const std::string line = make_batch({item, item, item, item});
  ASSERT_FALSE(QueryEngine::is_error_response(f.server->respond_line(line)));
  ASSERT_FALSE(QueryEngine::is_error_response(f.server->respond_line(line)));
  const ServerStats s = f.server->stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 7u);
  EXPECT_EQ(s.batch_items, 8u);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(Server, BackpressureSurvivesSlowReaderPipelining) {
  // A tiny write cap forces the server to pause reading whenever a few
  // responses are pending.  A client that floods requests while a separate
  // thread is the only reader must still get every response, in order.
  ServerOptions options;
  options.write_buffer_cap = 1024;
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string line =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  const std::string expected = f.engine->handle_json(line);
  constexpr std::size_t kBurst = 1000;

  std::thread writer([&client, &line] {
    std::string chunk;
    for (std::size_t i = 0; i < 50; ++i) chunk += line + "\n";
    for (std::size_t i = 0; i < kBurst / 50; ++i) {
      if (!client.send_raw(chunk)) return;
    }
  });
  std::size_t matched = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto response = client.read_line();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    if (*response == expected) ++matched;
  }
  writer.join();
  EXPECT_EQ(matched, kBurst);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Hot swap (RCU epoch flip)

TEST(ServerSwap, SwapInvalidatesCachedAnswersViaEpochKeys) {
  ServerFixture f;
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  const std::string line = R"({"op":"stats"})";
  const std::string before = f.server->respond_line(line);
  EXPECT_EQ(before, f.engine->handle_json(line));
  // Prime the cache under epoch 0, then flip.
  EXPECT_EQ(f.server->respond_line(line), before);
  f.server->swap_engine(engine_b);
  EXPECT_EQ(f.server->epoch(), 1u);
  const std::string after = f.server->respond_line(line);
  EXPECT_EQ(after, engine_b->handle_json(line));
  EXPECT_NE(after, before) << "make_db_b must be distinguishable";
  f.server->stop();
}

TEST(ServerSwap, MidFlightSwapsNeverMixEpochs) {
  // >= 10 flips while four clients hammer the same request over sockets:
  // every observed response must be byte-identical to exactly one of the
  // two engines' answers, and the epoch must land at the flip count.
  ServerFixture f;
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  const std::string line = R"({"op":"stats"})";
  const std::string bytes_a = f.engine->handle_json(line);
  const std::string bytes_b = engine_b->handle_json(line);
  ASSERT_NE(bytes_a, bytes_b);

  constexpr int kFlips = 12;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      Client client(f.port);
      if (!client.connected()) return;
      while (!done.load(std::memory_order_acquire)) {
        auto response = client.roundtrip(line);
        if (!response) return;
        if (*response != bytes_a && *response != bytes_b) {
          // memory-order: relaxed — test tally, read after joins.
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int flip = 1; flip <= kFlips; ++flip) {
    f.server->swap_engine(flip % 2 == 1 ? engine_b : f.engine);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(f.server->epoch(), static_cast<std::uint64_t>(kFlips));
  const std::string stats = f.server->respond_line(R"({"op":"server_stats"})");
  EXPECT_NE(stats.find("\"epoch\":" + std::to_string(kFlips)),
            std::string::npos);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// reload_index admin op

TEST(ServerReload, ReloadWithoutFactoryAnswersUnavailable) {
  ServerFixture f;
  const std::string response = f.server->respond_line(R"({"op":"reload_index"})");
  EXPECT_TRUE(QueryEngine::is_error_response(response));
  EXPECT_NE(response.find("\"code\":\"reload_unavailable\""),
            std::string::npos);
  f.server->stop();
}

TEST(ServerReload, ReloadOpFlipsEpochAsynchronously) {
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  ServerOptions options;
  options.reload_factory =
      [engine_b]() -> rs::util::Result<std::shared_ptr<const QueryEngine>> {
    return engine_b;
  };
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  auto accepted = client.roundtrip(R"({"op":"reload_index"})");
  ASSERT_TRUE(accepted.has_value());
  EXPECT_NE(accepted->find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(accepted->find("\"epoch\":0"), std::string::npos);

  // The flip is off-loop; poll server_stats until it lands.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool flipped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = client.roundtrip(R"({"op":"server_stats"})");
    ASSERT_TRUE(stats.has_value());
    if (stats->find("\"epoch\":1") != std::string::npos &&
        stats->find("\"reloads\":1") != std::string::npos) {
      flipped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(flipped);
  auto answer = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, engine_b->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

TEST(ServerReload, FailedReloadKeepsServingCurrentEpoch) {
  ServerOptions options;
  options.reload_factory =
      []() -> rs::util::Result<std::shared_ptr<const QueryEngine>> {
    return rs::util::Result<std::shared_ptr<const QueryEngine>>::err(
        "index file corrupt");
  };
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.roundtrip(R"({"op":"reload_index"})").has_value());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (f.server->stats().reload_failures == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(f.server->stats().reload_failures, 1u);
  EXPECT_EQ(f.server->epoch(), 0u);
  auto answer = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, f.engine->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

}  // namespace
}  // namespace rs::serve
