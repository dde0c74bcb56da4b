// On-disk compatibility: tests/data/parent_store is a store written by
// the engine as it was before the Bloom filter block, the block cache,
// compression, point Get, Delete and checkpoints were removed. It holds
// a MANIFEST, one flushed level-0 table whose footer points at a real
// Bloom filter block, and a live WAL with four entries that were never
// flushed (the directory was copied while the catalog was open, as a
// crash would leave it). It was generated with
//
//   auto index = core::AuthorIndex::OpenPersistent(work).value();
//   for (int i = 0; i < 12; ++i) index->Add(MakeEntry(i));
//   index->Flush();                    // 000003.tbl, with a filter block
//   for (int i = 12; i < 16; ++i) index->Add(MakeEntry(i));  // WAL only
//   // copy MANIFEST, 000002.wal and 000003.tbl out of `work`, then
//   std::_Exit(0);
//
// where MakeEntry is the function of the same name below. Today's engine
// must open that store, replay the WAL, ignore the filter block, and
// serve all sixteen entries exactly.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "authidx/common/env.h"
#include "authidx/core/author_index.h"
#include "authidx/storage/table.h"

namespace authidx {
namespace {

const std::string kFixture =
    std::string(AUTHIDX_REPO_ROOT) + "/tests/data/parent_store";

Entry MakeEntry(int i) {
  Entry e;
  e.author.surname =
      std::string("Surname") + static_cast<char>('A' + i % 26) +
      std::to_string(i);
  e.author.given = (i % 3 == 0) ? "" : "Given " + std::to_string(i);
  e.author.suffix = (i % 7 == 0) ? "Jr." : "";
  e.author.student_material = (i % 5 == 0);
  e.title = "Title number " + std::to_string(i) + " on compatibility";
  e.citation = {static_cast<uint32_t>(90 + i % 6),
                static_cast<uint32_t>(100 + 7 * i),
                static_cast<uint32_t>(1988 + i % 6)};
  if (i % 4 == 1) {
    e.coauthors = {"Other, Person " + std::to_string(i)};
  }
  return e;
}

class FormatCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/format_compat_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::copy(kFixture, dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Guards the fixture itself: without a non-empty filter handle the test
// below would not exercise the retired filter block at all.
TEST_F(FormatCompatTest, FixtureTableCarriesABloomFilterBlock) {
  auto data = Env::Default()->ReadFileToString(kFixture + "/000003.tbl");
  ASSERT_TRUE(data.ok()) << data.status();
  constexpr size_t kFooterSize = 4 * 10 + 8;
  ASSERT_GE(data->size(), kFooterSize);
  std::string_view footer =
      std::string_view(*data).substr(data->size() - kFooterSize);
  auto filter = storage::BlockHandle::DecodeFrom(&footer);
  ASSERT_TRUE(filter.ok());
  EXPECT_GT(filter->size, 0u);
  EXPECT_TRUE(Env::Default()->FileExists(kFixture + "/000002.wal"));
}

TEST_F(FormatCompatTest, ParentStoreOpensWithEveryEntry) {
  auto index = core::AuthorIndex::OpenPersistent(dir_);
  ASSERT_TRUE(index.ok()) << index.status();
  // 12 entries from the table, 4 replayed from the WAL.
  EXPECT_EQ((*index)->StorageStats().wal_replayed_records, 4u);
  ASSERT_EQ((*index)->entry_count(), 16u);
  for (int i = 0; i < 16; ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const Entry* got = (*index)->GetEntry(static_cast<EntryId>(i));
    ASSERT_NE(got, nullptr);
    Entry want = MakeEntry(i);
    EXPECT_EQ(got->author.surname, want.author.surname);
    EXPECT_EQ(got->author.given, want.author.given);
    EXPECT_EQ(got->author.suffix, want.author.suffix);
    EXPECT_EQ(got->author.student_material, want.author.student_material);
    EXPECT_EQ(got->title, want.title);
    EXPECT_EQ(got->citation.volume, want.citation.volume);
    EXPECT_EQ(got->citation.page, want.citation.page);
    EXPECT_EQ(got->citation.year, want.citation.year);
    EXPECT_EQ(got->coauthors, want.coauthors);
  }
  auto report = (*index)->VerifyStorageIntegrity();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean());

  // The recovered store stays readable after it is rewritten in the
  // current format (filter handle empty) by a compaction and a reopen.
  ASSERT_TRUE((*index)->CompactStorage().ok());
  index->reset();
  auto reopened = core::AuthorIndex::OpenPersistent(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ((*reopened)->entry_count(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(*(*reopened)->GetEntry(static_cast<EntryId>(i)), MakeEntry(i))
        << "entry " << i;
  }
  auto again = (*reopened)->VerifyStorageIntegrity();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->clean());
}

}  // namespace
}  // namespace authidx
