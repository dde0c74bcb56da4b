#ifndef AUTHIDX_STORAGE_BLOCK_H_
#define AUTHIDX_STORAGE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/result.h"
#include "authidx/storage/iterator.h"

namespace authidx::storage {

/// Builds one sorted block with LevelDB-style prefix compression:
///
///   entry  := shared (varint32) | non_shared (varint32)
///           | value_len (varint32) | key_suffix | value
///   block  := entry* | restart_offset (fixed32)* | num_restarts (fixed32)
///
/// Every `restart_interval`-th key is stored uncompressed (a restart
/// point); Seek binary-searches the restart array and scans forward.
class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  /// Adds a key >= every previously added key.
  void Add(std::string_view key, std::string_view value);

  /// Appends the restart trailer and returns the finished block contents.
  /// The builder must be Reset() before reuse.
  std::string_view Finish();

  void Reset();

  /// Current serialized size estimate (including trailer).
  size_t CurrentSizeEstimate() const;

  bool empty() const { return counter_ == 0 && restarts_.size() == 1; }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;  // Entries since last restart.
  std::string last_key_;
  bool finished_ = false;
};

/// Immutable read-side view of a finished block. Owns a copy of the
/// block contents.
class Block {
 public:
  /// Validates the trailer; returns Corruption for malformed blocks.
  static Result<std::unique_ptr<Block>> Parse(std::string contents);

  /// Iterator over the block's entries.
  std::unique_ptr<Iterator> NewIterator() const;

 private:
  class Iter;

  Block(std::string contents, uint32_t num_restarts, size_t restarts_offset)
      : contents_(std::move(contents)),
        num_restarts_(num_restarts),
        restarts_offset_(restarts_offset) {}

  std::string contents_;
  uint32_t num_restarts_;
  size_t restarts_offset_;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_BLOCK_H_
