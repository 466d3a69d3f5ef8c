#ifndef LAFP_IO_CSV_H_
#define LAFP_IO_CSV_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/dataframe.h"

namespace lafp::io {

/// Options mirroring the pandas read_csv arguments the paper's rewrites
/// manipulate: `usecols` (column-selection optimization, §3.1) and `dtype`
/// overrides (metadata optimization, §3.6 — including "category").
struct CsvReadOptions {
  std::vector<std::string> usecols;  // empty = all columns
  std::map<std::string, df::DataType> dtypes;  // per-column overrides
  char delimiter = ',';
  size_t nrows = 0;        // 0 = read all rows
  size_t infer_rows = 64;  // data rows sampled for type inference
};

/// Streaming CSV reader over a read-only mapping of the file. Records
/// are found with memchr, keeping the quote state so a quoted newline
/// does not end a record; fields are string_views into the mapping
/// (quoted ones are unescaped into one scratch buffer), and fields after
/// the last selected column are never split. The Dask backend pulls
/// fixed-size chunks so no more than a partition is resident at a time.
/// The mapped bytes are not charged to the MemoryTracker: they are page
/// cache, like the LFC reader's mapping.
class CsvChunkReader {
 public:
  /// Maps the file and reads the header. Column types are inferred from
  /// the first `infer_rows` records (or taken from options.dtypes).
  static Result<std::unique_ptr<CsvChunkReader>> Open(
      const std::string& path, const CsvReadOptions& options,
      MemoryTracker* tracker);
  ~CsvChunkReader();

  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  /// Next chunk of at most `rows` records, or nullopt at end of file.
  /// Blank records are skipped and not counted. Columns follow the
  /// selected-column order.
  Result<std::optional<df::DataFrame>> NextChunk(size_t rows);

  /// Steps over the records NextChunk(n) would return, without building
  /// columns. Returns how many were skipped; 0 means end of input (or of
  /// the nrows quota).
  size_t SkipRecords(size_t n);

  /// Names of the columns this reader produces (after usecols).
  const std::vector<std::string>& column_names() const { return out_names_; }
  const std::vector<df::DataType>& column_types() const { return out_types_; }

  /// All header names in file order (before usecols).
  const std::vector<std::string>& header() const { return header_; }

 private:
  CsvChunkReader() = default;

  Status Init(const std::string& path, const CsvReadOptions& options,
              MemoryTracker* tracker);
  /// Records still allowed by the nrows quota, capped at `rows`.
  size_t RecordsAllowed(size_t rows) const;
  /// The next non-blank record, or false at end of file.
  bool NextRecord(std::string_view* record);
  void InferTypes();
  Status ParseRecordInto(std::string_view record,
                         std::vector<df::ColumnBuilder>* builders);

  const char* data_ = nullptr;  // the read-only mapping of the whole file
  size_t size_ = 0;
  size_t pos_ = 0;  // start of the next unread record
  std::string scratch_;  // unescaped text of the current quoted field
  std::string path_;
  CsvReadOptions options_;
  MemoryTracker* tracker_ = nullptr;
  std::vector<std::string> header_;
  std::vector<std::string> out_names_;
  std::vector<df::DataType> out_types_;
  std::vector<size_t> out_field_index_;  // position in the record, ascending
  std::vector<bool> wants_category_;  // categorize after building strings
  size_t rows_emitted_ = 0;
};

/// Eager whole-file read (the Pandas/Modin path).
Result<df::DataFrame> ReadCsv(const std::string& path,
                              const CsvReadOptions& options,
                              MemoryTracker* tracker);

/// Write a dataframe as CSV (used by the data generators and tests).
Status WriteCsv(const df::DataFrame& frame, const std::string& path);

/// Split one CSV record into fields: a '"' anywhere toggles quoting, ""
/// inside quotes is a literal quote, and the delimiter splits only
/// outside quotes. The same splitter drives CsvChunkReader.
std::vector<std::string> SplitCsvLine(std::string_view line, char delimiter);

/// Column names from a CSV header record (before any usecols selection).
/// Used by plan fingerprinting and the rewriter's column check. IOError
/// when the file cannot be opened or is empty.
Result<std::vector<std::string>> ReadCsvHeaderNames(const std::string& path,
                                                    char delimiter = ',');

}  // namespace lafp::io

#endif  // LAFP_IO_CSV_H_
