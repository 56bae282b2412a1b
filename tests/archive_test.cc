#include "util/archive.h"

#include <cmath>
#include <cstdio>
#include <limits>

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

TEST(ArchiveTest, DoublesAreBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::nextafter(1.0, 2.0)};
  ArchiveWriter w;
  for (double v : values) w.WriteDouble(v);
  w.WriteDouble(std::numeric_limits<double>::quiet_NaN());
  auto r = ArchiveReader::FromBytes(w.Bytes());
  ASSERT_TRUE(r.ok());
  for (double v : values) {
    double got;
    ASSERT_TRUE(LoadRecord(&*r, &got).ok());
    EXPECT_EQ(std::signbit(got), std::signbit(v));
    EXPECT_EQ(got, v);
  }
  double nan_back;
  ASSERT_TRUE(LoadRecord(&*r, &nan_back).ok());
  EXPECT_TRUE(std::isnan(nan_back));
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

TEST(ArchiveTest, FourCcNamesArePrintable) {
  EXPECT_EQ(FourCcName(FourCc("TREE")), "TREE");
  EXPECT_EQ(FourCcName(0x01u), "\\x01\\x00\\x00\\x00");
}

}  // namespace
}  // namespace paws
