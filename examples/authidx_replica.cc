// authidx_replica — a WAL-shipping read replica: follows a primary
// authidx_server, applies its replication stream into a local store,
// and serves read-only RPC traffic (docs/REPLICATION.md is the
// operator guide).
//
//   authidx_replica --db DIR --primary HOST:PORT [--port N]
//                   [--http-port N] [--stale-after-ms N]
//                   [--io-timeout-ms N] [--workers N] [--reseed]
//                   [--log-level L] [--log-file PATH]
//
// The RPC port answers QUERY/STATS/PING like the primary; ADD and
// REPL_SUBSCRIBE get NOT_PRIMARY. When --http-port is given, /healthz
// returns 503 while the replica is stale (no frame from the primary
// within --stale-after-ms) or the primary reported itself degraded,
// so a load balancer drains reads from a replica that is falling
// behind. /metrics and /varz expose the authidx_repl_* instruments.
//
// --reseed wipes the local store before starting, forcing a fresh
// snapshot bootstrap — the recovery path for a replica whose
// replication cursor the primary can no longer serve.
//
// Exit status: 0 on clean shutdown, 1 on usage errors, 2 on runtime
// failures.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "authidx/common/env.h"
#include "authidx/common/strings.h"
#include "authidx/core/author_index.h"
#include "authidx/core/stats.h"
#include "authidx/format/metrics_text.h"
#include "authidx/net/replica.h"
#include "authidx/net/server.h"
#include "authidx/obs/http_server.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"

namespace {

using namespace authidx;

int Usage() {
  std::fprintf(
      stderr,
      "usage: authidx_replica --db DIR --primary HOST:PORT [flags]\n"
      "  --port N            read-only RPC port (default 7071; 0 = "
      "ephemeral)\n"
      "  --http-port N       serve HTTP /metrics /healthz /varz\n"
      "  --stale-after-ms N  /healthz turns 503 after N ms without a "
      "frame from the primary (default 10000)\n"
      "  --io-timeout-ms N   socket timeout toward the primary "
      "(default 5000)\n"
      "  --workers N         request worker threads (default 2)\n"
      "  --reseed            wipe the local store first and bootstrap "
      "from a fresh snapshot\n"
      "  --log-level L       debug|info|warn|error (default info)\n"
      "  --log-file PATH     also log to a rotating file\n");
  return 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

struct Args {
  std::string db;
  std::string primary_host;
  int primary_port = -1;
  int port = 7071;
  int http_port = -1;  // -1 = no HTTP endpoint.
  int64_t stale_after_ms = 10000;
  int64_t io_timeout_ms = 5000;
  int workers = 2;
  bool reseed = false;
  std::string log_level;
  std::string log_file;
};

bool ParsePort(const char* text, int* out) {
  Result<int64_t> value = ParseInt64(text);
  if (!value.ok() || *value < 0 || *value > 65535) {
    return false;
  }
  *out = static_cast<int>(*value);
  return true;
}

bool ParseHostPort(const std::string& text, std::string* host, int* port) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return false;
  }
  *host = text.substr(0, colon);
  return ParsePort(text.c_str() + colon + 1, port) && *port > 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto parse_nonneg = [&](int64_t* out) {
      const char* text = next();
      if (text == nullptr) {
        return false;
      }
      Result<int64_t> value = ParseInt64(text);
      if (!value.ok() || *value < 0) {
        return false;
      }
      *out = *value;
      return true;
    };
    if (arg == "--db") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->db = value;
    } else if (arg == "--primary") {
      const char* value = next();
      if (value == nullptr ||
          !ParseHostPort(value, &args->primary_host, &args->primary_port)) {
        return false;
      }
    } else if (arg == "--port") {
      const char* value = next();
      if (value == nullptr || !ParsePort(value, &args->port)) {
        return false;
      }
    } else if (arg == "--http-port") {
      const char* value = next();
      if (value == nullptr || !ParsePort(value, &args->http_port)) {
        return false;
      }
    } else if (arg == "--stale-after-ms") {
      if (!parse_nonneg(&args->stale_after_ms) || args->stale_after_ms == 0) {
        return false;
      }
    } else if (arg == "--io-timeout-ms") {
      if (!parse_nonneg(&args->io_timeout_ms) || args->io_timeout_ms == 0) {
        return false;
      }
    } else if (arg == "--workers") {
      int64_t workers = 0;
      if (!parse_nonneg(&workers) || workers == 0 || workers > 1024) {
        return false;
      }
      args->workers = static_cast<int>(workers);
    } else if (arg == "--reseed") {
      args->reseed = true;
    } else if (arg == "--log-level") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->log_level = value;
    } else if (arg == "--log-file") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->log_file = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->db.empty() && args->primary_port > 0;
}

// Removes every file in the replica's store directory so the next
// open recovers empty and the follower bootstraps from a snapshot.
Status WipeStore(const std::string& dir) {
  Env* env = Env::Default();
  Result<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) {
    // A missing directory is already "wiped".
    return names.status().code() == StatusCode::kNotFound ? Status::OK()
                                                          : names.status();
  }
  for (const std::string& name : *names) {
    if (name == "." || name == "..") {
      continue;
    }
    if (Status s = env->RemoveFile(dir + "/" + name); !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

// Set by SIGINT/SIGTERM so the main loop can drain and exit.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  // First, before the catalog opens (which rebuilds every index and can
  // take seconds): a stop signal at any later point must stop cleanly,
  // never kill the process mid-open or mid-start.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }

  obs::LogLevel level = obs::LogLevel::kInfo;
  if (!args.log_level.empty() &&
      !obs::ParseLogLevel(args.log_level, &level)) {
    std::fprintf(stderr, "unknown --log-level: %s\n",
                 args.log_level.c_str());
    return Usage();
  }
  obs::Logger logger(level);
  logger.AddSink(std::make_unique<obs::StderrSink>());
  if (!args.log_file.empty()) {
    Result<std::unique_ptr<obs::RotatingFileSink>> sink =
        obs::RotatingFileSink::Open(Env::Default(), args.log_file);
    if (!sink.ok()) {
      return Fail(sink.status());
    }
    logger.AddSink(std::move(sink).value());
  }

  if (args.reseed) {
    if (Status s = WipeStore(args.db); !s.ok()) {
      return Fail(s);
    }
    std::printf("reseed: wiped %s\n", args.db.c_str());
  }

  storage::EngineOptions engine_options;
  engine_options.logger = &logger;
  Result<std::unique_ptr<core::AuthorIndex>> catalog =
      core::AuthorIndex::OpenReplica(args.db, engine_options);
  if (!catalog.ok()) {
    return Fail(catalog.status());
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::printf("stopped before following\n");  // Stopped while opening.
    return 0;
  }

  net::ReplicaOptions replica_options;
  replica_options.primary_host = args.primary_host;
  replica_options.primary_port = args.primary_port;
  replica_options.io_timeout_ms = static_cast<int>(args.io_timeout_ms);
  replica_options.logger = &logger;
  net::ReplicationFollower follower(catalog->get(), args.db,
                                    replica_options);
  if (Status s = follower.Start(); !s.ok()) {
    return Fail(s);
  }

  net::ServerOptions options;
  options.port = args.port;
  options.num_workers = args.workers;
  options.metrics = (*catalog)->mutable_metrics();
  options.logger = &logger;
  net::Server server(catalog->get(), options);
  if (Status s = server.Start(); !s.ok()) {
    follower.Stop();
    return Fail(s);
  }

  obs::HttpServer http;
  if (args.http_port >= 0) {
    core::AuthorIndex* raw = catalog->get();
    net::ReplicationFollower* repl = &follower;
    uint64_t stale_after_ns =
        static_cast<uint64_t>(args.stale_after_ms) * 1000000u;
    uint64_t start_ns = obs::MonotonicNowNs();
    http.Route("/metrics", [raw] {
      obs::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = format::MetricsToPrometheusText(raw->GetMetricsSnapshot());
      return r;
    });
    http.Route("/healthz", [raw, repl, stale_after_ns] {
      obs::HttpResponse r;
      // Staleness gates reads: a replica that lost its primary keeps
      // serving (stale reads beat no reads for callers that opted in),
      // but the balancer is told to prefer fresher nodes.
      uint64_t silent_ns = repl->NsSinceLastContact();
      if (raw->StorageDegraded()) {
        r.status = 503;
        r.body =
            "degraded: " + raw->StorageBackgroundError().ToString() + "\n";
      } else if (silent_ns > stale_after_ns) {
        r.status = 503;
        r.body = silent_ns == UINT64_MAX
                     ? "stale: no contact with the primary yet\n"
                     : "stale: " + std::to_string(silent_ns / 1000000u) +
                           " ms since last frame from the primary\n";
      } else if (repl->primary_degraded()) {
        r.status = 503;
        r.body = "stale: primary reports degraded storage\n";
      } else {
        r.body = "ok\n";
      }
      return r;
    });
    http.Route("/varz", [raw, repl, start_ns] {
      obs::HttpResponse r;
      r.content_type = "application/json";
      storage::WalPosition applied = repl->applied_position();
      storage::WalPosition committed = repl->primary_committed();
      uint64_t silent_ns = repl->NsSinceLastContact();
      std::string body = "{\"role\":\"replica\"";
      body += ",\"uptime_ms\":" +
              std::to_string((obs::MonotonicNowNs() - start_ns) / 1000000u);
      body += ",\"replication\":{\"applied\":{\"wal\":" +
              std::to_string(applied.wal_number) +
              ",\"offset\":" + std::to_string(applied.offset) + "}";
      body += ",\"primary_committed\":{\"wal\":" +
              std::to_string(committed.wal_number) +
              ",\"offset\":" + std::to_string(committed.offset) + "}";
      body += ",\"ms_since_contact\":" +
              (silent_ns == UINT64_MAX
                   ? std::string("null")
                   : std::to_string(silent_ns / 1000000u));
      body += ",\"primary_degraded\":";
      body += repl->primary_degraded() ? "true" : "false";
      body += "}";
      body += ",\"stats\":" + core::ComputeStats(*raw).ToJson();
      body += "}";
      r.body = std::move(body);
      return r;
    });
    if (Status s = http.Start(args.http_port); !s.ok()) {
      server.Stop();
      follower.Stop();
      return Fail(s);
    }
  }

  std::printf("authidx_replica: rpc on 127.0.0.1:%d", server.port());
  if (args.http_port >= 0) {
    std::printf(", http on 127.0.0.1:%d", http.port());
  }
  std::printf(", following %s:%d (%zu entries); Ctrl-C stops\n",
              args.primary_host.c_str(), args.primary_port,
              (*catalog)->entry_count());
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  follower.Stop();
  if (args.http_port >= 0) {
    http.Stop();
  }
  std::printf("stopped at wal %llu offset %llu\n",
              static_cast<unsigned long long>(
                  follower.applied_position().wal_number),
              static_cast<unsigned long long>(
                  follower.applied_position().offset));
  return 0;
}
