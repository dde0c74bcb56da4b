// Cross-module property tests: algebraic invariants that must hold for
// arbitrary inputs, checked over seeded random samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "authidx/common/coding.h"
#include "authidx/common/random.h"
#include "authidx/format/typeset.h"
#include "authidx/model/serde.h"
#include "authidx/text/collate.h"
#include "authidx/text/distance.h"
#include "authidx/text/normalize.h"
#include "authidx/text/phonetic.h"
#include "authidx/text/tokenize.h"
#include "authidx/workload/namegen.h"

namespace authidx {
namespace {

std::string RandomString(Random* rng, size_t max_len, int alphabet) {
  std::string s;
  size_t len = rng->Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->Uniform(alphabet)));
  }
  return s;
}

TEST(MetricPropertyTest, LevenshteinIsAMetric) {
  Random rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, 12, 4);
    std::string b = RandomString(&rng, 12, 4);
    std::string c = RandomString(&rng, 12, 4);
    using text::Levenshtein;
    // Identity of indiscernibles.
    EXPECT_EQ(Levenshtein(a, a), 0u);
    EXPECT_EQ(Levenshtein(a, b) == 0, a == b);
    // Symmetry.
    EXPECT_EQ(Levenshtein(a, b), Levenshtein(b, a));
    // Triangle inequality.
    EXPECT_LE(Levenshtein(a, c), Levenshtein(a, b) + Levenshtein(b, c))
        << a << " " << b << " " << c;
    // Length-difference lower bound, max-length upper bound.
    size_t diff = a.size() > b.size() ? a.size() - b.size()
                                      : b.size() - a.size();
    EXPECT_GE(Levenshtein(a, b), diff);
    EXPECT_LE(Levenshtein(a, b), std::max(a.size(), b.size()));
  }
}

TEST(TextPropertyTest, FoldingAndNormalizationIdempotent) {
  Random rng(2);
  workload::NameGenerator names(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = trial % 2 == 0
                            ? names.NextTitle()
                            : RandomString(&rng, 30, 26) + " Édouard Šimek";
    std::string folded = text::FoldCase(input);
    EXPECT_EQ(text::FoldCase(folded), folded) << input;
    std::string normalized = text::NormalizeForIndex(input);
    EXPECT_EQ(text::NormalizeForIndex(normalized), normalized) << input;
  }
}

TEST(TextPropertyTest, AnalyzerIsDeterministicAndCaseBlind) {
  workload::NameGenerator names(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::string title = names.NextTitle();
    std::string upper;
    for (char c : title) {
      upper.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    EXPECT_EQ(text::Tokenize(title), text::Tokenize(title));
    EXPECT_EQ(text::Tokenize(title), text::Tokenize(upper)) << title;
  }
}

TEST(PhoneticPropertyTest, CodesAreCaseAndAccentInvariant) {
  workload::NameGenerator names(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string surname = names.NextSurname();
    std::string lower = text::FoldCase(surname);
    EXPECT_EQ(text::Soundex(surname), text::Soundex(lower));
    EXPECT_EQ(text::Metaphone(surname), text::Metaphone(lower));
  }
}

TEST(CollatePropertyTest, SortKeyIsInjective) {
  Random rng(6);
  std::set<std::string> inputs, keys;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s = RandomString(&rng, 10, 5);
    if (inputs.insert(s).second) {
      EXPECT_TRUE(keys.insert(text::MakeSortKey(s)).second)
          << "duplicate key for '" << s << "'";
    }
  }
}

TEST(CollatePropertyTest, KeyOrderRefinesPrimaryOrder) {
  // If two strings differ at the primary level, adding punctuation or
  // changing case must not reorder them.
  workload::NameGenerator names(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = names.NextSurname();
    std::string b = names.NextSurname();
    if (text::FoldCase(a) == text::FoldCase(b)) {
      continue;
    }
    int base = text::Compare(a, b);
    EXPECT_EQ(text::Compare("  " + a, b) < 0, base < 0);
    EXPECT_EQ(text::Compare(a + "'", b) < 0, base < 0);
    EXPECT_EQ(text::Compare(text::FoldCase(a), b) < 0, base < 0) << a;
  }
}

TEST(CodingPropertyTest, VarintLengthMatchesEncoding) {
  Random rng(8);
  for (int trial = 0; trial < 5000; ++trial) {
    uint64_t v = rng.Skewed(63);
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), static_cast<size_t>(VarintLength64(v))) << v;
    if (v <= UINT32_MAX) {
      std::string buf32;
      PutVarint32(&buf32, static_cast<uint32_t>(v));
      EXPECT_EQ(buf32.size(),
                static_cast<size_t>(VarintLength32(static_cast<uint32_t>(v))));
    }
  }
}

TEST(SerdePropertyTest, EncodingIsCanonical) {
  workload::NameGenerator names(10);
  Random rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    Entry entry;
    entry.author = names.NextAuthor();
    entry.title = names.NextTitle();
    entry.citation = {static_cast<uint32_t>(1 + rng.Uniform(100)),
                      static_cast<uint32_t>(1 + rng.Uniform(2000)),
                      static_cast<uint32_t>(1900 + rng.Uniform(150))};
    if (rng.OneIn(3)) {
      entry.coauthors.push_back(names.NextAuthor().ToIndexForm());
    }
    std::string encoded = EncodeEntryToString(entry);
    Result<Entry> decoded = DecodeEntryExact(encoded);
    ASSERT_TRUE(decoded.ok());
    // Canonical: re-encoding the decoded entry is byte-identical.
    EXPECT_EQ(EncodeEntryToString(*decoded), encoded);
  }
}

TEST(WrapPropertyTest, WrappingPreservesEveryWord) {
  workload::NameGenerator names(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::string title = names.NextTitle();
    for (size_t width : {8u, 14u, 36u}) {
      std::vector<std::string> lines = format::WrapText(title, width);
      // Rejoin and compare word sequences (hard-broken words re-fuse
      // because breaks only happen inside a word when it exceeds width,
      // and such fragments concatenate in order).
      std::string rejoined;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (!rejoined.empty() && !lines[i].empty()) {
          bool prev_full =
              lines[i - 1].size() == width;  // Possible hard break.
          rejoined += prev_full ? "" : " ";
        }
        rejoined += lines[i];
      }
      auto words_of = [](std::string_view s) {
        std::vector<std::string> words;
        std::string w;
        for (char c : s) {
          if (c == ' ') {
            if (!w.empty()) words.push_back(std::move(w));
            w.clear();
          } else {
            w.push_back(c);
          }
        }
        if (!w.empty()) words.push_back(std::move(w));
        return words;
      };
      // Count total non-space characters (robust to hard-break fusing).
      auto chars_of = [&](std::string_view s) {
        size_t n = 0;
        for (char c : s) {
          n += (c != ' ');
        }
        return n;
      };
      EXPECT_EQ(chars_of(rejoined), chars_of(title))
          << title << " @" << width;
      // Word count never shrinks below the original when no hard breaks
      // occurred (every line shorter than width).
      bool any_full = false;
      for (const auto& line : lines) {
        any_full |= line.size() == width;
      }
      if (!any_full) {
        EXPECT_EQ(words_of(rejoined), words_of(title));
      }
    }
  }
}

}  // namespace
}  // namespace authidx
