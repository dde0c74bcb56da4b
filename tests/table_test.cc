#include "authidx/storage/table.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "authidx/common/coding.h"
#include "authidx/common/crc32c.h"
#include "authidx/common/strings.h"

namespace authidx::storage {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/table_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/test.tbl";
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds a table file from sorted kvs and returns a reader.
  std::unique_ptr<TableReader> BuildAndOpen(
      const std::map<std::string, std::string>& kvs,
      TableBuilder::Options options = {}) {
    auto file = Env::Default()->NewWritableFile(path_);
    EXPECT_TRUE(file.ok());
    TableBuilder builder(options, file->get());
    for (const auto& [key, value] : kvs) {
      EXPECT_TRUE(builder.Add(key, value).ok());
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE((*file)->Sync().ok());
    EXPECT_TRUE((*file)->Close().ok());
    auto reader = TableReader::Open(Env::Default(), path_);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return std::move(reader).value();
  }

  std::map<std::string, std::string> ManyKvs(int n) {
    std::map<std::string, std::string> kvs;
    for (int i = 0; i < n; ++i) {
      kvs[StringPrintf("key%06d", i)] = StringPrintf("value-%d", i);
    }
    return kvs;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(TableTest, SeekLookupsAcrossManyBlocks) {
  TableBuilder::Options options;
  options.block_bytes = 512;  // Force many data blocks.
  auto kvs = ManyKvs(3000);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  for (int i = 0; i < 3000; i += 37) {
    std::string key = StringPrintf("key%06d", i);
    it->Seek(key);
    ASSERT_TRUE(it->status().ok()) << it->status();
    ASSERT_TRUE(it->Valid()) << key;
    EXPECT_EQ(it->key(), key);
    EXPECT_EQ(it->value(), StringPrintf("value-%d", i));
  }
}

TEST_F(TableTest, AbsentKeysSeekToTheirSuccessor) {
  TableBuilder::Options options;
  options.block_bytes = 256;
  auto kvs = ManyKvs(2000);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  for (int i = 0; i < 1999; i += 13) {
    // "key000013a" sorts between key000013 and key000014.
    it->Seek(StringPrintf("key%06da", i));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), StringPrintf("key%06d", i + 1));
  }
  it->Seek("key001999a");
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, FullIterationInOrder) {
  TableBuilder::Options options;
  options.block_bytes = 256;
  auto kvs = ManyKvs(1500);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  auto expected = kvs.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, kvs.end());
    ASSERT_EQ(it->key(), expected->first);
    ASSERT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, kvs.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, IteratorSeekAcrossBlockBoundaries) {
  TableBuilder::Options options;
  options.block_bytes = 128;
  auto kvs = ManyKvs(500);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  for (int i = 0; i < 500; i += 61) {
    std::string key = StringPrintf("key%06d", i);
    it->Seek(key);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), key);
  }
  it->Seek("key9");  // Past everything.
  EXPECT_FALSE(it->Valid());
  it->Seek("a");  // Before everything.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "key000000");
}

TEST_F(TableTest, OutOfOrderAddRejected) {
  auto file = Env::Default()->NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  TableBuilder builder({}, file->get());
  ASSERT_TRUE(builder.Add("b", "1").ok());
  EXPECT_TRUE(builder.Add("a", "2").IsInvalidArgument());
  EXPECT_TRUE(builder.Add("b", "2").IsInvalidArgument());
}

TEST_F(TableTest, EmptyTableOpensAndIterates) {
  auto reader = BuildAndOpen({});
  auto it = reader->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("anything");
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

// The footer keeps a filter handle so files from before the Bloom filter
// was dropped still open; new files write it empty.
TEST_F(TableTest, FooterFilterHandleIsWrittenEmpty) {
  BuildAndOpen(ManyKvs(100));
  std::string data = *Env::Default()->ReadFileToString(path_);
  constexpr size_t kFooterSize = 4 * 10 + 8;
  ASSERT_GE(data.size(), kFooterSize);
  std::string_view footer = std::string_view(data).substr(
      data.size() - kFooterSize);
  auto filter = BlockHandle::DecodeFrom(&footer);
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter->offset, 0u);
  EXPECT_EQ(filter->size, 0u);
}

TEST_F(TableTest, CorruptedDataBlockDetected) {
  TableBuilder::Options options;
  options.block_bytes = 256;
  auto kvs = ManyKvs(500);
  BuildAndOpen(kvs, options);
  // Flip a byte early in the file (inside the first data block).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto reader = TableReader::Open(Env::Default(), path_);
  ASSERT_TRUE(reader.ok());  // Footer and index are intact.
  // A scan reaching the damaged block must stop with corruption, never
  // yield wrong data.
  auto it = (*reader)->NewIterator();
  int yielded = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->value(), kvs.at(std::string(it->key())));
    ++yielded;
  }
  EXPECT_TRUE(it->status().IsCorruption()) << it->status();
  EXPECT_LT(yielded, 500);
}

// 'L' (per-block LZ compression) is a retired block type: a block that
// carries it, even with a valid CRC, is corruption.
TEST_F(TableTest, RetiredCompressedBlockTypeIsCorruption) {
  std::map<std::string, std::string> kvs = {{"k", "v"}};
  BuildAndOpen(kvs);
  BlockBuilder same_block;
  same_block.Add("k", "v");
  const size_t payload_size = same_block.Finish().size();
  std::string data = *Env::Default()->ReadFileToString(path_);
  // The only data block sits at offset 0: payload | type | crc.
  data[payload_size] = 'L';
  uint32_t crc = crc32c::Extend(0, data.data(), payload_size + 1);
  std::string masked;
  PutFixed32(&masked, crc32c::Mask(crc));
  data.replace(payload_size + 1, 4, masked);
  ASSERT_TRUE(Env::Default()->WriteStringToFileSync(path_, data).ok());
  auto reader = TableReader::Open(Env::Default(), path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto it = (*reader)->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption()) << it->status();
}

TEST_F(TableTest, TruncatedFileRejectedAtOpen) {
  BuildAndOpen(ManyKvs(100));
  std::filesystem::resize_file(path_, 10);
  auto reader = TableReader::Open(Env::Default(), path_);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status();
}

TEST_F(TableTest, BadMagicRejected) {
  BuildAndOpen(ManyKvs(10));
  uint64_t size = std::filesystem::file_size(path_);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size - 1));
    f.put('\0');
  }
  auto reader = TableReader::Open(Env::Default(), path_);
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(TableTest, LargeValuesRoundTrip) {
  std::map<std::string, std::string> kvs;
  kvs["big1"] = std::string(100000, 'x');
  kvs["big2"] = std::string(50000, 'y');
  kvs["small"] = "s";
  auto reader = BuildAndOpen(kvs);
  auto it = reader->NewIterator();
  std::map<std::string, std::string> read;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    read.emplace(it->key(), it->value());
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(read, kvs);
}

}  // namespace
}  // namespace authidx::storage
