#include "io/csv.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>

#include "common/string_util.h"
#include "dataframe/ops.h"

namespace lafp::io {
namespace {

using df::DataFrame;
using df::DataType;

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "csv_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
  MemoryTracker tracker_{0};
};

TEST_F(CsvTest, ReadsTypedColumns) {
  WriteFile(
      "id,fare,city,ok\n"
      "1,10.5,NY,True\n"
      "2,20.0,SF,False\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
  EXPECT_EQ((*frame->column("id"))->type(), DataType::kInt64);
  EXPECT_EQ((*frame->column("fare"))->type(), DataType::kDouble);
  EXPECT_EQ((*frame->column("city"))->type(), DataType::kString);
  EXPECT_EQ((*frame->column("ok"))->type(), DataType::kBool);
  EXPECT_EQ((*frame->column("id"))->IntAt(1), 2);
  EXPECT_DOUBLE_EQ((*frame->column("fare"))->DoubleAt(0), 10.5);
  EXPECT_TRUE((*frame->column("ok"))->BoolAt(0));
}

TEST_F(CsvTest, InfersTimestamps) {
  WriteFile(
      "when\n"
      "2024-01-01 08:00:00\n"
      "2024-01-02 09:30:00\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("when"))->type(), DataType::kTimestamp);
  EXPECT_EQ((*frame->column("when"))->ValueString(0),
            "2024-01-01 08:00:00");
}

TEST_F(CsvTest, UsecolsReadsOnlySelected) {
  WriteFile(
      "a,b,c\n"
      "1,2,3\n"
      "4,5,6\n");
  CsvReadOptions opts;
  opts.usecols = {"c", "a"};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  // pandas preserves file order for usecols.
  EXPECT_EQ(frame->names(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ((*frame->column("c"))->IntAt(1), 6);
}

TEST_F(CsvTest, UsecolsUnknownColumnFails) {
  WriteFile("a\n1\n");
  CsvReadOptions opts;
  opts.usecols = {"ghost"};
  EXPECT_TRUE(ReadCsv(path_, opts, &tracker_).status().IsKeyError());
}

TEST_F(CsvTest, UsecolsReducesMemory) {
  std::string content = "a,b,c,d,e,f\n";
  for (int i = 0; i < 500; ++i) {
    content += "1,2,3,4,5,6\n";
  }
  WriteFile(content);
  MemoryTracker all_tracker(0), some_tracker(0);
  auto all = ReadCsv(path_, {}, &all_tracker);
  CsvReadOptions opts;
  opts.usecols = {"a"};
  auto some = ReadCsv(path_, opts, &some_tracker);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_LT(some->footprint_bytes(), all->footprint_bytes() / 4);
}

TEST_F(CsvTest, DtypeOverrides) {
  WriteFile(
      "zip,label\n"
      "02134,x\n"
      "10001,y\n");
  CsvReadOptions opts;
  opts.dtypes = {{"zip", DataType::kString}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("zip"))->type(), DataType::kString);
  EXPECT_EQ((*frame->column("zip"))->StringAt(0), "02134");  // leading zero kept
}

TEST_F(CsvTest, CategoryDtypeProducesDictionary) {
  WriteFile(
      "city\n"
      "NY\nSF\nNY\nNY\n");
  CsvReadOptions opts;
  opts.dtypes = {{"city", DataType::kCategory}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("city"))->type(), DataType::kCategory);
  EXPECT_EQ((*frame->column("city"))->dictionary()->size(), 2u);
  EXPECT_EQ((*frame->column("city"))->StringAt(2), "NY");
}

TEST_F(CsvTest, BlankFieldsBecomeNulls) {
  WriteFile(
      "a,b\n"
      "1,x\n"
      ",y\n"
      "3,\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE((*frame->column("a"))->IsValid(1));
  EXPECT_FALSE((*frame->column("b"))->IsValid(2));
  EXPECT_EQ((*frame->column("a"))->IntAt(2), 3);
}

TEST_F(CsvTest, MixedIntDoubleWidens) {
  WriteFile(
      "v\n"
      "1\n"
      "2.5\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("v"))->type(), DataType::kDouble);
}

TEST_F(CsvTest, QuotedFieldsWithCommasAndEscapes) {
  WriteFile(
      "name,desc\n"
      "\"Smith, John\",\"said \"\"hi\"\"\"\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("name"))->StringAt(0), "Smith, John");
  EXPECT_EQ((*frame->column("desc"))->StringAt(0), "said \"hi\"");
}

TEST_F(CsvTest, NrowsLimitsRead) {
  WriteFile("v\n1\n2\n3\n4\n");
  CsvReadOptions opts;
  opts.nrows = 2;
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
}

TEST_F(CsvTest, ChunkedReaderStreamsAllRows) {
  std::string content = "v\n";
  for (int i = 0; i < 100; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
  ASSERT_TRUE(reader.ok());
  size_t total = 0;
  int chunks = 0;
  int64_t next_expected = 0;
  while (true) {
    auto chunk = (*reader)->NextChunk(7);
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    ++chunks;
    EXPECT_LE((*chunk)->num_rows(), 7u);
    const auto& col = *(*chunk)->column(0);
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col.IntAt(i), next_expected++);
    }
    total += (*chunk)->num_rows();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(chunks, 15);  // ceil(100/7)
}

TEST_F(CsvTest, ChunkedInferencePrefixLargerThanChunk) {
  // infer_rows (64) larger than chunk size: buffered lines must drain
  // correctly across chunks.
  std::string content = "v\n";
  for (int i = 0; i < 30; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
  ASSERT_TRUE(reader.ok());
  auto c1 = (*reader)->NextChunk(10);
  ASSERT_TRUE(c1.ok() && c1->has_value());
  EXPECT_EQ((*c1)->num_rows(), 10u);
  auto c2 = (*reader)->NextChunk(100);
  ASSERT_TRUE(c2.ok() && c2->has_value());
  EXPECT_EQ((*c2)->num_rows(), 20u);
  auto c3 = (*reader)->NextChunk(10);
  ASSERT_TRUE(c3.ok());
  EXPECT_FALSE(c3->has_value());
}

TEST_F(CsvTest, MissingFileFails) {
  EXPECT_TRUE(
      ReadCsv("/nonexistent/nope.csv", {}, &tracker_).status().code() ==
      StatusCode::kIOError);
}

TEST_F(CsvTest, HeaderOnlyFileGivesEmptyFrame) {
  WriteFile("a,b\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 0u);
  EXPECT_EQ(frame->num_columns(), 2u);
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  auto id = *df::Column::MakeInt({1, 2}, {}, &tracker_);
  auto name = *df::Column::MakeString({"a,b", "c\"d"}, {}, &tracker_);
  auto fare = *df::Column::MakeDouble({1.5, 2.0}, {1, 0}, &tracker_);
  auto frame = *DataFrame::Make({"id", "name", "fare"}, {id, name, fare});
  ASSERT_TRUE(WriteCsv(frame, path_).ok());
  auto back = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ((*back->column("name"))->StringAt(0), "a,b");
  EXPECT_EQ((*back->column("name"))->StringAt(1), "c\"d");
  EXPECT_FALSE((*back->column("fare"))->IsValid(1));
}

TEST_F(CsvTest, CrLfLineEndings) {
  WriteFile("a,b\r\n1,x\r\n2,y\r\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
  EXPECT_EQ((*frame->column("b"))->StringAt(1), "y");
}

TEST_F(CsvTest, SplitCsvLineEdgeCases) {
  EXPECT_EQ(SplitCsvLine("a,b", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCsvLine("\"a,b\",c", ','),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(SplitCsvLine("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCsvLine("\"\"\"\"", ','),
            (std::vector<std::string>{"\""}));
}

TEST_F(CsvTest, RoundTripQuotedLineBreaksAndQuotes) {
  const std::vector<std::string> values = {
      "a\nb", "x\r", "plain", "d,e", "say \"hi\"", "\"\"", "p\r\nq",
      "\n\nlead", "tail\n"};
  std::vector<int64_t> ids;
  for (size_t i = 0; i < values.size(); ++i) ids.push_back(int64_t(i));
  auto id = *df::Column::MakeInt(ids, {}, &tracker_);
  auto text = *df::Column::MakeString(values, {}, &tracker_);
  auto frame = *DataFrame::Make({"id", "text"}, {id, text});
  ASSERT_TRUE(WriteCsv(frame, path_).ok());
  auto back = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ((*back->column("id"))->IntAt(i), int64_t(i));
    EXPECT_EQ((*back->column("text"))->StringAt(i), values[i]) << i;
  }
}

TEST_F(CsvTest, HeaderNamesAreQuotedOnWrite) {
  auto a = *df::Column::MakeInt({1}, {}, &tracker_);
  auto b = *df::Column::MakeInt({2}, {}, &tracker_);
  auto frame = *DataFrame::Make({"x,y", "q\"z"}, {a, b});
  ASSERT_TRUE(WriteCsv(frame, path_).ok());
  auto names = ReadCsvHeaderNames(path_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"x,y", "q\"z"}));
}

// Records spanning several lines: a quoted newline (and a quoted blank
// line) belongs to its record, CRLF inside quotes is data.
constexpr const char* kMultiLineCsv =
    "id,s\n"
    "1,\"a\nb\"\n"
    "2,\"c\n\nd\"\n"
    "\n"
    "3,e\r\n"
    "4,\"f\r\ng\"\n";

TEST_F(CsvTest, QuotedNewlineOnChunkBoundary) {
  WriteFile(kMultiLineCsv);
  const std::vector<std::string> want = {"a\nb", "c\n\nd", "e", "f\r\ng"};
  for (size_t rows : {1, 2, 3}) {
    auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
    ASSERT_TRUE(reader.ok());
    std::vector<std::string> got;
    size_t chunks = 0;
    while (true) {
      auto chunk = (*reader)->NextChunk(rows);
      ASSERT_TRUE(chunk.ok());
      if (!chunk->has_value()) break;
      ++chunks;
      EXPECT_LE((*chunk)->num_rows(), rows);
      const auto& ids = **(*chunk)->column("id");
      const auto& s = **(*chunk)->column("s");
      for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(ids.IntAt(i), int64_t(got.size() + 1));
        got.push_back(s.StringAt(i));
      }
    }
    EXPECT_EQ(got, want) << "rows=" << rows;
    EXPECT_EQ(chunks, (want.size() + rows - 1) / rows) << "rows=" << rows;
  }
}

TEST_F(CsvTest, NrowsCountsRecordsNotLines) {
  WriteFile(kMultiLineCsv);
  CsvReadOptions opts;
  opts.nrows = 2;
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->num_rows(), 2u);
  EXPECT_EQ((*frame->column("s"))->StringAt(1), "c\n\nd");
}

TEST_F(CsvTest, SkipRecordsMatchesNextChunkGeometry) {
  WriteFile(kMultiLineCsv);
  CsvReadOptions opts;
  opts.nrows = 3;
  auto reader = CsvChunkReader::Open(path_, opts, &tracker_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->SkipRecords(2), 2u);
  auto chunk = (*reader)->NextChunk(2);
  ASSERT_TRUE(chunk.ok() && chunk->has_value());
  ASSERT_EQ((*chunk)->num_rows(), 1u);  // the nrows quota is shared
  EXPECT_EQ((**(*chunk)->column("s")).StringAt(0), "e");
  EXPECT_EQ((*reader)->SkipRecords(2), 0u);

  auto all = CsvChunkReader::Open(path_, {}, &tracker_);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)->SkipRecords(3), 3u);
  EXPECT_EQ((*all)->SkipRecords(3), 1u);
  EXPECT_EQ((*all)->SkipRecords(3), 0u);
  auto end = (*all)->NextChunk(1);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

// The number parsers take std::from_chars where it provably agrees with
// strtoll/strtod and fall back to them otherwise. These references are the
// pure strtoll/strtod parsers; every value read through ReadCsv must match
// them bit for bit.
std::optional<int64_t> StrtollReference(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 31) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<double> StrtodReference(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 63) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  if (std::isinf(v) && s.find("inf") == std::string_view::npos &&
      s.find("INF") == std::string_view::npos) {
    return std::nullopt;
  }
  return v;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

const std::vector<std::string> kNumberInputs = {
    "+5", " 42 ", "\t-7", "007", "-0", "1e999", "-1e999", "1e-400",
    "4e-320", "5e-324", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1e308", "1.7976931348623157e308",
    "1.8e308", "1e-4000000000", "inf", "-inf", "Inf", "INF", "Infinity",
    "nan", "NaN", "-nan", "-0.0", "0.0", "0e500", "0x10", "0X1p3", "+0.5",
    "12345678901234567890", "-12345678901234567890",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "3.0", "1.5", ".5", "5.", "1e", "1e+2", "123abc", "--1", "+-1",
    "00000000000000000000000000000042",
    "0.100000000000000000000000000000000000000000000000000000000000001"};

TEST_F(CsvTest, DoubleColumnMatchesStrtod) {
  std::string content = "v\n";
  for (const auto& in : kNumberInputs) content += in + "\n";
  WriteFile(content);
  CsvReadOptions opts;
  opts.dtypes = {{"v", DataType::kDouble}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  const auto& col = **frame->column("v");
  ASSERT_EQ(col.size(), kNumberInputs.size());
  for (size_t i = 0; i < kNumberInputs.size(); ++i) {
    auto want = StrtodReference(kNumberInputs[i]);
    ASSERT_EQ(col.IsValid(i), want.has_value()) << kNumberInputs[i];
    if (want) EXPECT_EQ(Bits(col.DoubleAt(i)), Bits(*want)) << kNumberInputs[i];
  }
}

TEST_F(CsvTest, IntColumnMatchesStrtoll) {
  // Inputs whose strtod fallback fits int64 (the cast of inf/nan or a
  // 20-digit value is not defined).
  const std::vector<std::string> inputs = {
      "+5", " 42 ", "\t-7", "007", "-0", "3.0", "1.5", "-2.5", "0x10",
      "1e3", "-0.0", "1e999", "1e-400", "4e-320", "9223372036854775807",
      "-9223372036854775808", "00000000000000000000000000000042", "123abc",
      "+-1"};
  std::string content = "v\n";
  for (const auto& in : inputs) content += in + "\n";
  WriteFile(content);
  CsvReadOptions opts;
  opts.dtypes = {{"v", DataType::kInt64}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  const auto& col = **frame->column("v");
  ASSERT_EQ(col.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::optional<int64_t> want = StrtollReference(inputs[i]);
    if (!want) {
      if (auto d = StrtodReference(inputs[i])) want = int64_t(*d);
    }
    ASSERT_EQ(col.IsValid(i), want.has_value()) << inputs[i];
    if (want) EXPECT_EQ(col.IntAt(i), *want) << inputs[i];
  }
}

TEST_F(CsvTest, InferenceMatchesStrtollStrtod) {
  for (const auto& in : kNumberInputs) {
    WriteFile("v\n" + in + "\n");
    auto frame = ReadCsv(path_, {}, &tracker_);
    ASSERT_TRUE(frame.ok());
    const auto& col = **frame->column("v");
    if (auto i = StrtollReference(in)) {
      ASSERT_EQ(col.type(), DataType::kInt64) << in;
      EXPECT_EQ(col.IntAt(0), *i) << in;
    } else if (auto d = StrtodReference(in)) {
      ASSERT_EQ(col.type(), DataType::kDouble) << in;
      EXPECT_EQ(Bits(col.DoubleAt(0)), Bits(*d)) << in;
    } else {
      ASSERT_EQ(col.type(), DataType::kString) << in;
      EXPECT_EQ(col.StringAt(0), in);
    }
  }
}

TEST_F(CsvTest, TimestampWithTrailingTextIsAString) {
  WriteFile("when\n2023-01-02xyz\n2023-01-03\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("when"))->type(), DataType::kString);
  EXPECT_EQ((*frame->column("when"))->StringAt(0), "2023-01-02xyz");
}

TEST_F(CsvTest, OutOfMemoryDuringReadSurfacesAsStatus) {
  std::string content = "v\n";
  for (int i = 0; i < 10000; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  MemoryTracker small(1024);  // far below 10000 * 8 bytes
  auto frame = ReadCsv(path_, {}, &small);
  EXPECT_TRUE(frame.status().IsOutOfMemory());
}

}  // namespace
}  // namespace lafp::io
