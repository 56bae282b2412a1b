#include "util/archive.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(ArchiveTest, PrimitivesRoundTrip) {
  ArchiveWriter w;
  w.WriteU8(0xab);
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteU32(0xdeadbeefu);
  w.WriteI32(-42);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI64(-1234567890123LL);
  w.WriteDouble(3.141592653589793);
  w.WriteString("hello archive");
  w.WriteDoubleVector({1.5, -2.5, 0.0});
  w.WriteIntVector({-1, 0, 7});
  w.WriteU8Vector({9, 8, 7});

  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok()) << r.status();
  uint8_t u8;
  bool b1, b2;
  uint32_t u32;
  int i32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  std::vector<double> dv;
  std::vector<int> iv;
  std::vector<uint8_t> u8v;
  ASSERT_TRUE(LoadRecord(&*r, &u8).ok());
  ASSERT_TRUE(LoadRecord(&*r, &b1).ok());
  ASSERT_TRUE(LoadRecord(&*r, &b2).ok());
  ASSERT_TRUE(LoadRecord(&*r, &u32).ok());
  ASSERT_TRUE(LoadRecord(&*r, &i32).ok());
  ASSERT_TRUE(LoadRecord(&*r, &u64).ok());
  ASSERT_TRUE(LoadRecord(&*r, &i64).ok());
  ASSERT_TRUE(LoadRecord(&*r, &d).ok());
  ASSERT_TRUE(LoadRecord(&*r, &s).ok());
  ASSERT_TRUE(LoadRecord(&*r, &dv).ok());
  ASSERT_TRUE(LoadRecord(&*r, &iv).ok());
  ASSERT_TRUE(LoadRecord(&*r, &u8v).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(d, 3.141592653589793);
  EXPECT_EQ(s, "hello archive");
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(iv, (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(u8v, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r->ExpectEnd().ok());
}

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ArchiveTest, DoublesAreBitExact) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  const double next = std::nextafter(1.0, 2.0);
  // A quiet NaN with its sign set and a payload no arithmetic produces.
  const uint64_t nan_bits = 0xfff8'0000'dead'beefull;
  double nan;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  std::vector<double> doubles = {0.0, -0.0, inf, -inf, tiny, huge, next, nan};
  const std::vector<int> ints = {INT_MIN, -1, 0, INT_MAX};

  // The leading u8 starts both runs at an odd offset, where a typed load
  // would be misaligned. Each run must hold exactly the bytes that writing
  // its count and values one at a time produces.
  ArchiveWriter runs, one_by_one;
  runs.WriteU8(1);
  runs.WriteDoubleVector(doubles);
  runs.WriteIntVector(ints);
  one_by_one.WriteU8(1);
  one_by_one.WriteU64(doubles.size());
  for (double v : doubles) one_by_one.WriteDouble(v);
  one_by_one.WriteU64(ints.size());
  for (int v : ints) one_by_one.WriteI32(v);
  const std::string bytes = runs.Bytes();
  ASSERT_EQ(bytes, one_by_one.Bytes());

  auto r = ArchiveReader::FromBytes(bytes);
  ASSERT_TRUE(r.ok()) << r.status();
  uint8_t lead = 0;
  std::vector<double> doubles_back;
  std::vector<int> ints_back;
  ASSERT_TRUE(LoadRecord(&*r, &lead).ok());
  ASSERT_TRUE(LoadRecord(&*r, &doubles_back).ok());
  ASSERT_TRUE(LoadRecord(&*r, &ints_back).ok());
  EXPECT_TRUE(r->ExpectEnd().ok());
  ASSERT_EQ(doubles_back.size(), doubles.size());
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(BitsOf(doubles_back[i]), BitsOf(doubles[i])) << "double " << i;
  }
  EXPECT_EQ(ints_back, ints);

  // The same bytes read one double at a time give the same bits.
  auto scalar = ArchiveReader::FromBytes(bytes);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  uint64_t count = 0;
  ASSERT_TRUE(LoadRecord(&*scalar, &lead).ok());
  ASSERT_TRUE(LoadRecord(&*scalar, &count).ok());
  ASSERT_EQ(count, doubles.size());
  for (double v : doubles) {
    double got;
    ASSERT_TRUE(LoadRecord(&*scalar, &got).ok());
    EXPECT_EQ(BitsOf(got), BitsOf(v));
  }
}

TEST(ArchiveTest, SectionsNestAndValidate) {
  ArchiveWriter w;
  w.BeginSection(FourCc("OUTR"));
  w.WriteU32(1);
  w.BeginSection(FourCc("INNR"));
  w.WriteDouble(2.0);
  w.EndSection();
  w.EndSection();

  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->EnterSection(FourCc("OUTR")).ok());
  uint32_t v;
  ASSERT_TRUE(LoadRecord(&*r, &v).ok());
  ASSERT_TRUE(r->EnterSection(FourCc("INNR")).ok());
  double d;
  ASSERT_TRUE(LoadRecord(&*r, &d).ok());
  ASSERT_TRUE(r->LeaveSection().ok());
  ASSERT_TRUE(r->LeaveSection().ok());
  EXPECT_TRUE(r->ExpectEnd().ok());
}

TEST(ArchiveTest, SectionTagMismatchFails) {
  ArchiveWriter w;
  w.BeginSection(FourCc("AAAA"));
  w.EndSection();
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  const Status st = r->EnterSection(FourCc("BBBB"));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("AAAA"), std::string::npos);
}

TEST(ArchiveTest, UnderconsumedSectionFails) {
  ArchiveWriter w;
  w.BeginSection(FourCc("SECT"));
  w.WriteU32(7);
  w.EndSection();
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->EnterSection(FourCc("SECT")).ok());
  EXPECT_FALSE(r->LeaveSection().ok());  // 4 bytes left unread
}

TEST(ArchiveTest, ReadsCannotCrossSectionEnd) {
  ArchiveWriter w;
  w.BeginSection(FourCc("SECT"));
  w.WriteU8(1);
  w.EndSection();
  w.WriteU64(0x1234);
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->EnterSection(FourCc("SECT")).ok());
  uint64_t v;
  EXPECT_FALSE(LoadRecord(&*r, &v).ok());  // would cross into the outer scope
}

TEST(ArchiveTest, RejectsBadMagic) {
  ArchiveWriter w;
  w.WriteU32(1);
  std::string bytes = w.Bytes();
  bytes[0] = 'X';
  EXPECT_FALSE(ArchiveReader::FromBytes(bytes).ok());
}

TEST(ArchiveTest, RejectsWrongContainerVersion) {
  ArchiveWriter w;
  w.WriteU32(1);
  std::string bytes = w.Bytes();
  bytes[4] = static_cast<char>(kArchiveFormatVersion + 1);
  const auto r = ArchiveReader::FromBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(ArchiveTest, CrcCatchesEveryFlippedByte) {
  ArchiveWriter w;
  w.WriteString("payload under test");
  const std::string good = w.Bytes();
  ASSERT_TRUE(ArchiveReader::FromBytes(good).ok());
  for (size_t i = 8; i < good.size(); ++i) {  // skip magic/version (checked
                                              // by their own paths)
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_FALSE(ArchiveReader::FromBytes(bad).ok()) << "byte " << i;
  }
}

TEST(ArchiveTest, TruncationFailsCleanly) {
  ArchiveWriter w;
  w.WriteDoubleVector({1.0, 2.0, 3.0});
  const std::string good = w.Bytes();
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(ArchiveReader::FromBytes(good.substr(0, n)).ok())
        << "length " << n;
  }
}

TEST(ArchiveTest, HugeContainerLengthIsRejectedBeforeAllocation) {
  // A container claiming ~2^61 doubles must fail with Status, not OOM.
  ArchiveWriter w;
  w.WriteU64(0x2000000000000000ull);
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  std::vector<double> v;
  const Status st = LoadRecord(&*r, &v);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ArchiveTest, TrailingGarbageDetected) {
  ArchiveWriter w;
  w.WriteU32(5);
  w.WriteU32(6);
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  uint32_t v;
  ASSERT_TRUE(LoadRecord(&*r, &v).ok());
  EXPECT_FALSE(r->ExpectEnd().ok());
}

TEST(ArchiveTest, FileRoundTrip) {
  const std::string path = "archive_test_roundtrip.paws";
  ArchiveWriter w;
  w.WriteString("on disk");
  ASSERT_TRUE(WriteStringToFile(w.Bytes(), path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto r = ArchiveReader::FromBytes(*bytes);
  ASSERT_TRUE(r.ok()) << r.status();
  std::string s;
  ASSERT_TRUE(LoadRecord(&*r, &s).ok());
  EXPECT_EQ(s, "on disk");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileToString(path).ok());  // NotFound after removal
}

TEST(ArchiveTest, Crc32MatchesKnownVector) {
  // The standard CRC-32 check value ("123456789" -> 0xcbf43926).
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// The byte-at-a-time table loop, the checksum every faster Crc32 must
// reproduce.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

TEST(ArchiveTest, Crc32MatchesBytewiseReference) {
  // Lengths 0-320 at every start offset 0-15: under 64 bytes the 16-byte
  // table loop and its byte tail; from 64 the carry-less fold (where the
  // CPU has it) with 0-4 passes of its 64-byte loop, 0-3 16-byte folds and
  // a 0-15-byte tail, each at every misalignment. 1 MiB runs the fold long.
  std::mt19937 rng(20200420);
  std::vector<unsigned char> buffer((size_t{1} << 20) + 16);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 320; ++n) {
      EXPECT_EQ(Crc32(buffer.data() + offset, n),
                BytewiseCrc32(buffer.data() + offset, n))
          << "offset " << offset << ", length " << n;
    }
  }
  const size_t mib = size_t{1} << 20;
  EXPECT_EQ(Crc32(buffer.data(), mib), BytewiseCrc32(buffer.data(), mib));
}

TEST(ArchiveTest, FourCcNamesArePrintable) {
  EXPECT_EQ(FourCcName(FourCc("TREE")), "TREE");
  EXPECT_EQ(FourCcName(0x01u), "\\x01\\x00\\x00\\x00");
}

}  // namespace
}  // namespace paws
