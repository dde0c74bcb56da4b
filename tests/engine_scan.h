#ifndef AUTHIDX_TESTS_ENGINE_SCAN_H_
#define AUTHIDX_TESTS_ENGINE_SCAN_H_

// Reads a StorageEngine back through NewIterator(), the engine's only
// read path: ScanAll collects the whole store into a map (so a check can
// also prove that no key exists beyond its model), ScanGet seeks one
// key. Both return the iterator's error status instead of a partial
// answer.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "authidx/common/result.h"
#include "authidx/storage/engine.h"

namespace authidx::tests {

inline Result<std::map<std::string, std::string>> ScanAll(
    storage::StorageEngine* engine) {
  std::map<std::string, std::string> contents;
  std::unique_ptr<storage::Iterator> it = engine->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    contents.emplace(it->key(), it->value());
  }
  AUTHIDX_RETURN_NOT_OK(it->status());
  return contents;
}

inline Result<std::optional<std::string>> ScanGet(
    storage::StorageEngine* engine, std::string_view key) {
  std::unique_ptr<storage::Iterator> it = engine->NewIterator();
  it->Seek(key);
  AUTHIDX_RETURN_NOT_OK(it->status());
  if (it->Valid() && it->key() == key) {
    return std::optional<std::string>(std::string(it->value()));
  }
  return std::optional<std::string>();
}

}  // namespace authidx::tests

#endif  // AUTHIDX_TESTS_ENGINE_SCAN_H_
