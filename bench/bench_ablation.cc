// B11 (ablations): design-choice sweeps called out in DESIGN.md —
// restart-interval space/time trade and batch vs single-op ingest.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "authidx/common/random.h"
#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"

namespace authidx::storage {
namespace {

std::string FreshDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/authidx_ablate_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void FillAndCompact(StorageEngine* engine, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    AUTHIDX_CHECK_OK(
        engine->Put(StringPrintf("author/%08zu/entry", i),
                    "surname given-names suffix title title title " +
                        std::string(60, static_cast<char>('a' + (i % 7)))));
  }
  AUTHIDX_CHECK_OK(engine->Compact());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

// range(0): restart interval; counter reports resulting table bytes.
void BM_AblateRestartInterval(benchmark::State& state) {
  int interval = static_cast<int>(state.range(0));
  std::string dir = FreshDir("restart");
  EngineOptions options;
  options.restart_interval = interval;
  auto engine = StorageEngine::Open(dir, options);
  FillAndCompact(engine->get(), 50000);
  state.counters["table_bytes"] = static_cast<double>(DirBytes(dir));
  Random rng(6);
  {
    auto it = (*engine)->NewIterator();
    for (auto _ : state) {
      it->Seek(StringPrintf("author/%08zu/entry", rng.Uniform(50000)));
      benchmark::DoNotOptimize(it->Valid());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  AUTHIDX_CHECK_OK((*engine)->Close());
  engine->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_AblateRestartInterval)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Batch vs single-op ingest (WAL framing and sync amortization).
void BM_AblateBatchIngest(benchmark::State& state) {
  size_t batch_size = static_cast<size_t>(state.range(0));
  std::string dir = FreshDir("batch");
  EngineOptions options;
  options.sync_writes = true;  // Where batching matters most.
  auto engine = StorageEngine::Open(dir, options);
  size_t i = 0;
  for (auto _ : state) {
    if (batch_size <= 1) {
      AUTHIDX_CHECK_OK((*engine)->Put(StringPrintf("key%010zu", i++), "value"));
    } else {
      WriteBatch batch;
      for (size_t j = 0; j < batch_size; ++j) {
        batch.Put(StringPrintf("key%010zu", i++), "value");
      }
      AUTHIDX_CHECK_OK((*engine)->Apply(batch));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size ? batch_size : 1));
  AUTHIDX_CHECK_OK((*engine)->Close());
  engine->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_AblateBatchIngest)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace authidx::storage
