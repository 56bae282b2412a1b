#include "ml/dataset_io.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "core/pipeline.h"

namespace paws {
namespace {

Dataset Toy() {
  Dataset d(2);
  d.AddRow({1.5, -0.25}, 1, 0.75, 0, 3);
  d.AddRow({2.0, 0.0}, 0, 2.0, 1, 7);
  return d;
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const Dataset original = Toy();
  auto parsed = DatasetFromCsv(DatasetToCsv(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), original.size());
  ASSERT_EQ(parsed->num_features(), original.num_features());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->label(i), original.label(i));
    EXPECT_DOUBLE_EQ(parsed->effort(i), original.effort(i));
    EXPECT_EQ(parsed->time_step(i), original.time_step(i));
    EXPECT_EQ(parsed->cell_id(i), original.cell_id(i));
    EXPECT_EQ(parsed->RowVector(i), original.RowVector(i));
  }
}

TEST(DatasetIoTest, FileRoundTrip) {
  const Dataset original = Toy();
  const std::string path = ::testing::TempDir() + "/paws_dataset_io.csv";
  ASSERT_TRUE(WriteDatasetCsv(original, path).ok());
  auto parsed = ReadDatasetCsv(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), original.size());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, SimulatedParkRoundTripsThroughCsv) {
  // The real adoption path: dataset-builder output -> CSV -> dataset.
  Scenario s = MakeScenario(ParkPreset::kMfnp, 3);
  s.park.width = 22;
  s.park.height = 18;
  s.num_years = 2;
  const ScenarioData data = SimulateScenario(s, 4);
  const Dataset built = BuildDataset(data.park, data.history);
  auto parsed = DatasetFromCsv(DatasetToCsv(built));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), built.size());
  EXPECT_EQ(parsed->CountPositives(), built.CountPositives());
  for (int i = 0; i < built.size(); i += 37) {
    EXPECT_EQ(parsed->RowVector(i), built.RowVector(i));
  }
}

TEST(DatasetIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(DatasetFromCsv("").ok());
  EXPECT_FALSE(DatasetFromCsv("wrong,header\n").ok());
  EXPECT_FALSE(
      DatasetFromCsv("label,effort,time_step,cell_id\n").ok());  // no features
  // Ragged row.
  EXPECT_FALSE(
      DatasetFromCsv("label,effort,time_step,cell_id,f0\n1,1.0,0\n").ok());
  // Non-binary label.
  EXPECT_FALSE(
      DatasetFromCsv("label,effort,time_step,cell_id,f0\n2,1.0,0,0,0.5\n")
          .ok());
  // Negative effort.
  EXPECT_FALSE(
      DatasetFromCsv("label,effort,time_step,cell_id,f0\n1,-1.0,0,0,0.5\n")
          .ok());
  // Garbage number.
  EXPECT_FALSE(
      DatasetFromCsv("label,effort,time_step,cell_id,f0\n1,1.0,0,0,abc\n")
          .ok());
  // NaN effort, and time steps or cell ids that are not integral ints.
  for (const char* row : {"1,nan,0,0,0.5", "1,1.0,nan,0,0.5",
                          "1,1.0,0,1e300,0.5", "1,1.0,0,2.5,0.5"}) {
    const auto parsed = DatasetFromCsv(
        std::string("label,effort,time_step,cell_id,f0\n") + row + "\n");
    ASSERT_FALSE(parsed.ok()) << row;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << row;
  }
}

TEST(DatasetIoTest, ReadMissingFileIsNotFound) {
  auto result = ReadDatasetCsv("/nonexistent/paws.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatasetIoTest, BlankLinesIgnored) {
  auto parsed = DatasetFromCsv(
      "label,effort,time_step,cell_id,f0\n\n1,1.0,0,0,0.5\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1);
}

// LoadRecord with the dataset returned.
StatusOr<Dataset> LoadDatasetRecord(ArchiveReader* reader) {
  Dataset data(1);
  PAWS_RETURN_IF_ERROR(LoadRecord(reader, &data));
  return data;
}

TEST(DatasetIoTest, BinaryRoundTripIsBitExact) {
  const Dataset original = Toy();
  ArchiveWriter writer;
  SaveRecord(original, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto parsed = LoadDatasetRecord(&*reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), original.size());
  ASSERT_EQ(parsed->num_features(), original.num_features());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->label(i), original.label(i));
    EXPECT_EQ(parsed->effort(i), original.effort(i));  // bit-exact
    EXPECT_EQ(parsed->time_step(i), original.time_step(i));
    EXPECT_EQ(parsed->cell_id(i), original.cell_id(i));
    EXPECT_EQ(parsed->RowVector(i), original.RowVector(i));
  }
}

TEST(DatasetIoTest, BinaryFileRoundTrip) {
  const Dataset original = Toy();
  const std::string path = ::testing::TempDir() + "/paws_dataset_io.paws";
  ASSERT_TRUE(WriteDatasetBinary(original, path).ok());
  auto parsed = ReadDatasetBinary(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), original.size());
  EXPECT_EQ(parsed->RowVector(0), original.RowVector(0));
  std::remove(path.c_str());
  EXPECT_FALSE(ReadDatasetBinary(path).ok());
}

TEST(DatasetIoTest, BinaryRejectsCorruptAndTruncatedArchives) {
  ArchiveWriter writer;
  SaveRecord(Toy(), &writer);
  const std::string good = writer.Bytes();
  // Truncations die in the container layer.
  for (size_t n = 0; n < good.size(); n += 7) {
    EXPECT_FALSE(ArchiveReader::FromBytes(good.substr(0, n)).ok());
  }
  // Structural corruption past the CRC: rewrite a valid archive whose
  // section claims a non-binary label.
  ArchiveWriter bad;
  Dataset d(1);
  d.AddRow({0.5}, 1, 1.0);
  SaveRecord(d, &bad);
  // Flip the label int (value 1 -> 7) by rebuilding with a raw writer.
  ArchiveWriter forged;
  forged.BeginSection(FourCc("DSET"));
  forged.WriteU32(1);   // schema version
  forged.WriteI32(1);   // k
  forged.WriteU64(1);   // n
  forged.WriteIntVector({7});      // non-binary label
  forged.WriteDoubleVector({1.0});
  forged.WriteIntVector({-1});
  forged.WriteIntVector({-1});
  forged.WriteDoubleVector({0.5});
  forged.EndSection();
  auto reader = ArchiveReader::FromBytes(forged.Bytes());
  ASSERT_TRUE(reader.ok());
  const auto parsed = LoadDatasetRecord(&*reader);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, BinaryAndCsvAgreeOnSimulatedPark) {
  Scenario s = MakeScenario(ParkPreset::kMfnp, 3);
  s.park.width = 22;
  s.park.height = 18;
  s.num_years = 2;
  const ScenarioData data = SimulateScenario(s, 4);
  const Dataset built = BuildDataset(data.park, data.history);
  ArchiveWriter writer;
  SaveRecord(built, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto binary = LoadDatasetRecord(&*reader);
  ASSERT_TRUE(binary.ok()) << binary.status();
  auto csv = DatasetFromCsv(DatasetToCsv(built));
  ASSERT_TRUE(csv.ok());
  ASSERT_EQ(binary->size(), csv->size());
  for (int i = 0; i < built.size(); i += 37) {
    EXPECT_EQ(binary->RowVector(i), built.RowVector(i));
    EXPECT_EQ(binary->RowVector(i), csv->RowVector(i));
  }
}

}  // namespace
}  // namespace paws
