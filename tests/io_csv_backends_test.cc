// CSV records that span lines (quoted newlines) and hold the delimiter and
// quotes read back the same on Pandas, Modin, Dask and Shard at every
// partition size: each backend cuts its chunks at record boundaries, never
// at a newline inside a quoted field.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/macros.h"
#include "io/csv.h"
#include "lazy/fat_dataframe.h"

namespace lafp::lazy {
namespace {

using exec::BackendKind;

const std::vector<std::string> kText = {
    "plain",      "a,b",        "say \"hi\"", "line\nbreak", "\"",
    "x\r",        "two\n\nlines", "c\r\nrlf", ",\n\"",       "tail\n",
    "lead space", "end"};

class CsvBackendsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "csv_backends_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/quoted.csv";
    std::vector<int64_t> ids;
    std::vector<double> values;
    std::vector<uint8_t> valid;
    for (size_t i = 0; i < kText.size(); ++i) {
      ids.push_back(static_cast<int64_t>(i));
      values.push_back(0.5 * static_cast<double>(i));
      valid.push_back(i % 4 == 3 ? 0 : 1);
    }
    auto frame = *df::DataFrame::Make(
        {"id", "text", "v"},
        {*df::Column::MakeInt(ids, {}, &tracker_),
         *df::Column::MakeString(kText, {}, &tracker_),
         *df::Column::MakeDouble(values, valid, &tracker_)});
    ASSERT_TRUE(io::WriteCsv(frame, path_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<df::DataFrame> Read(BackendKind backend, size_t partition_rows) {
    SessionOptions opts;
    opts.backend = backend;
    opts.backend_config.partition_rows = partition_rows;
    opts.backend_config.shards = backend == BackendKind::kShard ? 2 : 0;
    opts.tracker = &tracker_;
    Session session(opts);
    LAFP_ASSIGN_OR_RETURN(auto frame, FatDataFrame::ReadCsv(&session, path_));
    return frame.ToEager();
  }

  std::string dir_, path_;
  MemoryTracker tracker_{0};
};

TEST_F(CsvBackendsTest, AllBackendsAgreeAtEveryPartitionSize) {
  auto reference = Read(BackendKind::kPandas, 1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->num_rows(), kText.size());
  const auto& text = **reference->column("text");
  for (size_t i = 0; i < kText.size(); ++i) {
    EXPECT_EQ(text.StringAt(i), kText[i]) << i;
  }
  const std::string want = reference->ToString(kText.size() + 1);
  for (size_t rows : {1, 2, 3}) {
    for (BackendKind backend :
         {BackendKind::kModin, BackendKind::kDask, BackendKind::kShard}) {
      auto got = Read(backend, rows);
      ASSERT_TRUE(got.ok()) << exec::BackendKindName(backend)
                            << " rows=" << rows << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->ToString(kText.size() + 1), want)
          << exec::BackendKindName(backend) << " rows=" << rows;
      const auto& got_text = **got->column("text");
      ASSERT_EQ(got_text.size(), kText.size());
      for (size_t i = 0; i < kText.size(); ++i) {
        EXPECT_EQ(got_text.StringAt(i), kText[i])
            << exec::BackendKindName(backend) << " rows=" << rows << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lafp::lazy
