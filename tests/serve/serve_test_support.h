// Shared fixtures for the serve-layer suites (server_test.cpp and the
// serve_fault battery): a two-snapshot world, a minimal blocking NDJSON
// client, a started Server over that world, and a request mix covering
// every wire-op family plus a malformed line.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/query/engine.h"
#include "src/serve/server.h"
#include "src/store/database.h"
#include "src/util/hex.h"
#include "src/x509/builder.h"

namespace rs::serve::test_support {

using rs::query::QueryEngine;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

inline std::shared_ptr<const rs::x509::Certificate> make_cert(
    std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Serve Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

inline StoreDatabase make_db() {
  auto a = make_cert(1);
  auto b = make_cert(2);
  StoreDatabase db;
  ProviderHistory h("P");
  Snapshot s1;
  s1.provider = "P";
  s1.date = Date::ymd(2019, 1, 1);
  s1.version = "1";
  s1.entries = {rs::store::make_tls_anchor(a)};
  Snapshot s2;
  s2.provider = "P";
  s2.date = Date::ymd(2020, 1, 1);
  s2.version = "2";
  s2.entries = {rs::store::make_tls_anchor(a), rs::store::make_tls_anchor(b)};
  h.add(std::move(s1));
  h.add(std::move(s2));
  db.add(std::move(h));
  return db;
}

/// Minimal blocking NDJSON client.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool send_raw(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads up to the next newline; empty optional on EOF/error.
  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::optional<std::string> roundtrip(const std::string& request) {
    if (!send_raw(request + "\n")) return std::nullopt;
    return read_line();
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  std::shared_ptr<const QueryEngine> engine =
      std::make_shared<const QueryEngine>(make_db(),
                                          std::vector<rs::synth::UserAgentGroup>{});
  std::unique_ptr<Server> server;
  std::uint16_t port = 0;

  explicit ServerFixture(ServerOptions options = {}) {
    server = std::make_unique<Server>(engine, options);
    auto bound = server->start();
    EXPECT_TRUE(bound.ok()) << bound.error();
    port = bound.ok() ? bound.value() : 0;
  }
};

inline std::vector<std::string> request_mix() {
  const std::string fp_a = rs::util::hex_encode(make_cert(1)->sha256());
  const std::string fp_b = rs::util::hex_encode(make_cert(2)->sha256());
  return {
      R"({"op":"stats"})",
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})",
      R"({"op":"store_at","provider":"P","date":"2020-06-01"})",
      R"({"op":"store_at","provider":"P","date":"1999-01-01"})",
      R"({"op":"is_trusted","provider":"P","fp":")" + fp_a +
          R"(","date":"2019-06-01"})",
      R"({"op":"is_trusted","provider":"P","fp":")" + fp_b +
          R"(","date":"2019-06-01"})",
      R"({"op":"diff","provider":"P","date_a":"2019-06-01","date_b":"2020-06-01"})",
      R"({"op":"lineage","fp":")" + fp_b + R"("})",
      R"({"op":"providers_trusting","fp":")" + fp_a +
          R"(","date":"2019-06-01"})",
      R"({"op":"agreement_at","date":"2019-06-01"})",
      R"({"op":"agreement_at","date":"2020-06-01","scope":"present"})",
      R"({"op":"ct_coverage","provider":"P","date":"2020-06-01"})",
      R"({"op":"ct_coverage","provider":"Nope","date":"2020-06-01"})",
      R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})",
      R"(garbage that does not parse)",
  };
}

}  // namespace rs::serve::test_support
