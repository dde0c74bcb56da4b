// authidx_server — the standalone network front end over a persistent
// catalog (docs/SERVER.md is the operator guide).
//
//   authidx_server --db DIR [--port N] [--workers N] [--queue-limit N]
//                  [--max-conns N] [--max-pipeline N]
//                  [--max-frame-bytes N] [--http-port N] [--slow-ms N]
//                  [--result-cache-mb N] [--trace-sample-every N]
//                  [--log-level L] [--log-file PATH]
//
// Speaks the binary wire protocol (docs/PROTOCOL.md) on --port and,
// when --http-port is given, serves the HTTP observability surface
// (/metrics /healthz /varz /slowlog /rpcz /tracez) from the same
// process — one metrics registry covers the engine and the RPC layer.
// SIGINT/SIGTERM stop accepting, drain queued requests, and exit 0.
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
#include "authidx/format/metrics_text.h"
#include "authidx/net/server.h"
#include "authidx/obs/http_server.h"
#include "authidx/obs/log.h"
#include "authidx/obs/slowlog.h"

namespace {

using namespace authidx;

int Usage() {
  std::fprintf(
      stderr,
      "usage: authidx_server --db DIR [flags]\n"
      "  --port N             RPC port (default 7070; 0 = ephemeral)\n"
      "  --workers N          request worker threads (default 4)\n"
      "  --queue-limit N      shed when the worker queue holds N "
      "(default 256)\n"
      "  --max-conns N        reject connections beyond N (default 1024)\n"
      "  --max-pipeline N     shed beyond N in-flight per connection "
      "(default 64)\n"
      "  --max-frame-bytes N  drop connections announcing bigger frames\n"
      "  --http-port N        also serve HTTP /metrics /healthz /varz "
      "/slowlog /rpcz /tracez\n"
      "  --slow-ms N          arm the slow-query log at N ms\n"
      "  --result-cache-mb N  cache query results in N MiB, "
      "epoch-invalidated (0 = off)\n"
      "  --trace-sample-every N  record a span tree for 1 in N "
      "untraced requests (0 = off)\n"
      "  --log-level L        debug|info|warn|error (default info)\n"
      "  --log-file PATH      also log to a rotating file\n");
  return 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

struct Args {
  std::string db;
  int port = 7070;
  int workers = 4;
  int64_t queue_limit = 256;
  int64_t max_conns = 1024;
  int64_t max_pipeline = 64;
  int64_t max_frame_bytes = 0;  // 0 = protocol default.
  int http_port = -1;           // -1 = no HTTP endpoint.
  int64_t slow_ms = -1;
  int64_t result_cache_mb = 0;
  int64_t trace_sample_every = 0;
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

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto parse_count = [&](int64_t* out) {
      const char* text = next();
      if (text == nullptr) {
        return false;
      }
      Result<int64_t> value = ParseInt64(text);
      if (!value.ok() || *value <= 0) {
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
    } else if (arg == "--workers") {
      int64_t workers = 0;
      if (!parse_count(&workers) || workers > 1024) {
        return false;
      }
      args->workers = static_cast<int>(workers);
    } else if (arg == "--queue-limit") {
      if (!parse_count(&args->queue_limit)) {
        return false;
      }
    } else if (arg == "--max-conns") {
      if (!parse_count(&args->max_conns)) {
        return false;
      }
    } else if (arg == "--max-pipeline") {
      if (!parse_count(&args->max_pipeline)) {
        return false;
      }
    } else if (arg == "--max-frame-bytes") {
      if (!parse_count(&args->max_frame_bytes)) {
        return false;
      }
    } else if (arg == "--slow-ms") {
      const char* text = next();
      if (text == nullptr) {
        return false;
      }
      Result<int64_t> value = ParseInt64(text);
      if (!value.ok() || *value < 0) {
        return false;
      }
      args->slow_ms = *value;
    } else if (arg == "--result-cache-mb") {
      const char* text = next();
      if (text == nullptr) {
        return false;
      }
      Result<int64_t> value = ParseInt64(text);
      if (!value.ok() || *value < 0) {
        return false;
      }
      args->result_cache_mb = *value;
    } else if (arg == "--trace-sample-every") {
      const char* text = next();
      if (text == nullptr) {
        return false;
      }
      Result<int64_t> value = ParseInt64(text);
      if (!value.ok() || *value < 0) {
        return false;
      }
      args->trace_sample_every = *value;
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
  return !args->db.empty();
}

// Set by SIGINT/SIGTERM so the main loop can drain and exit.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Persists pending writes and reports the stop; a failed flush is
// printed but keeps the exit status 0, since acknowledged adds are
// already in the WAL and replay on the next open.
int FlushAndStop(core::AuthorIndex* catalog) {
  if (Status s = catalog->Flush(); !s.ok()) {
    std::fprintf(stderr, "flush on shutdown: %s\n", s.ToString().c_str());
  }
  std::printf("stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // First, before the catalog opens (which rebuilds every index and can
  // take seconds): a stop signal at any later point must drain and
  // exit cleanly, never kill the process mid-open or mid-start.
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

  storage::EngineOptions engine_options;
  engine_options.logger = &logger;
  Result<std::unique_ptr<core::AuthorIndex>> catalog =
      core::AuthorIndex::OpenPersistent(args.db, engine_options);
  if (!catalog.ok()) {
    return Fail(catalog.status());
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    return FlushAndStop(catalog->get());  // Stopped while opening.
  }
  if (args.slow_ms >= 0) {
    (*catalog)->SetSlowQueryThreshold(
        args.slow_ms > 0 ? static_cast<uint64_t>(args.slow_ms) * 1000000u
                         : 1);
  }
  if (args.result_cache_mb > 0) {
    (*catalog)->EnableResultCache(
        static_cast<size_t>(args.result_cache_mb) * 1024 * 1024);
  }

  net::ServerOptions options;
  options.port = args.port;
  options.num_workers = args.workers;
  options.queue_limit = static_cast<size_t>(args.queue_limit);
  options.max_connections = static_cast<size_t>(args.max_conns);
  options.max_pipeline = static_cast<size_t>(args.max_pipeline);
  if (args.max_frame_bytes > 0) {
    options.max_frame_bytes = static_cast<size_t>(args.max_frame_bytes);
  }
  options.trace_sample_every =
      static_cast<uint64_t>(args.trace_sample_every);
  // Shared registry: engine and RPC instruments on one /metrics page.
  options.metrics = (*catalog)->mutable_metrics();
  options.logger = &logger;
  net::Server server(catalog->get(), options);
  if (Status s = server.Start(); !s.ok()) {
    return Fail(s);
  }

  obs::HttpServer http;
  if (args.http_port >= 0) {
    core::AuthorIndex* raw = catalog->get();
    obs::Logger* log = &logger;
    http.Route("/metrics", [raw] {
      obs::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = format::MetricsToPrometheusText(raw->GetMetricsSnapshot());
      return r;
    });
    http.Route("/healthz", [raw, log] {
      obs::HttpResponse r;
      // Sticky storage degradation outranks logged errors: writes fail
      // fast until the store is reopened, so drain write traffic.
      if (raw->StorageDegraded()) {
        r.status = 503;
        r.body =
            "degraded: " + raw->StorageBackgroundError().ToString() + "\n";
      } else if (log->error_count() != 0) {
        r.status = 503;
        r.body = "degraded: " + log->last_error() + "\n";
      } else {
        r.body = "ok\n";
      }
      return r;
    });
    http.Route("/slowlog", [raw] {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = obs::SlowQueryLog::ToJson(raw->SlowQueries());
      return r;
    });
    net::Server* rpc = &server;
    http.Route("/rpcz", [rpc] {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = rpc->RpczJson();
      return r;
    });
    http.Route("/tracez", [rpc] {
      obs::HttpResponse r;
      r.content_type = "text/plain; charset=utf-8";
      r.body = rpc->TracezText();
      return r;
    });
    if (Status s = http.Start(args.http_port); !s.ok()) {
      server.Stop();
      return Fail(s);
    }
  }

  std::printf("authidx_server: rpc on 127.0.0.1:%d", server.port());
  if (args.http_port >= 0) {
    std::printf(", http on 127.0.0.1:%d", http.port());
  }
  std::printf(" (%zu entries); Ctrl-C drains and stops\n",
              (*catalog)->entry_count());
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  if (args.http_port >= 0) {
    http.Stop();
  }
  return FlushAndStop(catalog->get());
}
