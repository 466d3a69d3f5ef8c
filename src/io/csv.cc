#include "io/csv.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "dataframe/ops.h"

namespace lafp::io {

using df::Column;
using df::ColumnBuilder;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;

namespace {

/// Takes the record that starts at `*pos`: everything up to the first
/// '\n' outside double quotes (or the end of the data), less one trailing
/// '\r', and advances `*pos` past that newline. As in FieldSplitter, every
/// '"' toggles the quote state, so the state at a newline is the parity of
/// the quotes before it in the record.
std::string_view TakeRecord(const char* data, size_t size, size_t* pos) {
  const char* begin = data + *pos;
  const char* end = data + size;
  const char* line = begin;
  const char* nl = end;
  bool quoted = false;
  while (true) {
    nl = static_cast<const char*>(std::memchr(line, '\n', end - line));
    if (nl == nullptr) nl = end;
    for (const char* q = line;
         (q = static_cast<const char*>(std::memchr(q, '"', nl - q))) !=
         nullptr;
         ++q) {
      quoted = !quoted;
    }
    if (!quoted || nl == end) break;
    line = nl + 1;
  }
  *pos = nl == end ? size : static_cast<size_t>(nl - data) + 1;
  size_t len = static_cast<size_t>(nl - begin);
  if (len > 0 && begin[len - 1] == '\r') --len;
  return {begin, len};
}

/// First byte in [p, end) that is `delimiter` or '"', or `end`. Eight
/// bytes at a time: in the SWAR zero-byte test the lowest flagged byte is
/// always a true match (false flags only sit above a real one).
const char* FindFieldStop(const char* p, const char* end, char delimiter) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHighs = 0x8080808080808080ULL;
    const uint64_t delimiters = kOnes * static_cast<uint8_t>(delimiter);
    const uint64_t quotes = kOnes * static_cast<uint8_t>('"');
    for (; end - p >= 8; p += 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const uint64_t d = word ^ delimiters;
      const uint64_t q = word ^ quotes;
      const uint64_t hits = (((d - kOnes) & ~d) | ((q - kOnes) & ~q)) & kHighs;
      if (hits != 0) return p + std::countr_zero(hits) / 8;
    }
  }
  while (p < end && *p != delimiter && *p != '"') ++p;
  return p;
}

/// Yields the fields of one record in order: a '"' anywhere toggles
/// quoting, "" inside quotes is a literal quote, and the delimiter splits
/// only outside quotes. A field without quotes is a view into the record;
/// a quoted one is unescaped into `scratch`, so each view is valid until
/// the next call.
class FieldSplitter {
 public:
  FieldSplitter(std::string_view record, char delimiter, std::string* scratch)
      : p_(record.data()),
        end_(record.data() + record.size()),
        delimiter_(delimiter),
        scratch_(scratch) {}

  /// False once every field has been yielded; a record has at least one.
  bool Next(std::string_view* field) {
    if (done_) return false;
    const char* start = p_;
    const char* q = FindFieldStop(start, end_, delimiter_);
    if (q == end_ || *q == delimiter_) {
      *field = std::string_view(start, static_cast<size_t>(q - start));
      Advance(q);
      return true;
    }
    scratch_->assign(start, q);
    bool quoted = false;
    for (; q < end_; ++q) {
      const char c = *q;
      if (quoted) {
        if (c != '"') {
          scratch_->push_back(c);
        } else if (q + 1 < end_ && q[1] == '"') {
          scratch_->push_back('"');
          ++q;
        } else {
          quoted = false;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == delimiter_) {
        break;
      } else {
        scratch_->push_back(c);
      }
    }
    *field = *scratch_;
    Advance(q);
    return true;
  }

 private:
  void Advance(const char* stop) {
    if (stop == end_) {
      done_ = true;
    } else {
      p_ = stop + 1;
    }
  }

  const char* p_;
  const char* end_;
  char delimiter_;
  std::string* scratch_;
  bool done_ = false;
};

/// Infer the type of one value; kNull for blanks.
DataType InferValueType(std::string_view raw) {
  std::string_view v = Trim(raw);
  if (v.empty()) return DataType::kNull;
  if (v == "True" || v == "False" || v == "true" || v == "false") {
    return DataType::kBool;
  }
  if (ParseInt64(v).has_value()) return DataType::kInt64;
  if (ParseDouble(v).has_value()) return DataType::kDouble;
  if (df::ParseTimestamp(v).ok()) return DataType::kTimestamp;
  return DataType::kString;
}

/// Widening lattice for inference across rows.
DataType UnifyTypes(DataType a, DataType b) {
  if (a == DataType::kNull) return b;
  if (b == DataType::kNull) return a;
  if (a == b) return a;
  auto numeric_rank = [](DataType t) {
    switch (t) {
      case DataType::kBool:
        return 0;
      case DataType::kInt64:
        return 1;
      case DataType::kDouble:
        return 2;
      default:
        return -1;
    }
  };
  int ra = numeric_rank(a), rb = numeric_rank(b);
  if (ra >= 0 && rb >= 0) return ra > rb ? a : b;
  return DataType::kString;  // any other mix degrades to string
}

bool AppendParsed(ColumnBuilder* builder, DataType type,
                  std::string_view raw) {
  std::string_view v = Trim(raw);
  if (v.empty()) {
    builder->AppendNull();
    return true;
  }
  switch (type) {
    case DataType::kInt64: {
      auto p = ParseInt64(v);
      if (!p.has_value()) {
        // Tolerate "3.0" in an int column (replication artifacts).
        auto d = ParseDouble(v);
        if (!d.has_value()) {
          builder->AppendNull();
          return true;
        }
        builder->AppendInt(static_cast<int64_t>(*d));
        return true;
      }
      builder->AppendInt(*p);
      return true;
    }
    case DataType::kDouble: {
      auto p = ParseDouble(v);
      if (!p.has_value()) {
        builder->AppendNull();
      } else {
        builder->AppendDouble(*p);
      }
      return true;
    }
    case DataType::kBool: {
      if (v == "True" || v == "true" || v == "1") {
        builder->AppendBool(true);
      } else if (v == "False" || v == "false" || v == "0") {
        builder->AppendBool(false);
      } else {
        builder->AppendNull();
      }
      return true;
    }
    case DataType::kTimestamp: {
      auto p = df::ParseTimestamp(v);
      if (!p.ok()) {
        builder->AppendNull();
      } else {
        builder->AppendInt(*p);
      }
      return true;
    }
    case DataType::kString:
      builder->AppendString(std::string(raw));
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<std::string> SplitCsvLine(std::string_view line,
                                      char delimiter) {
  std::vector<std::string> fields;
  std::string scratch;
  FieldSplitter splitter(line, delimiter, &scratch);
  std::string_view field;
  while (splitter.Next(&field)) fields.emplace_back(field);
  return fields;
}

Result<std::unique_ptr<CsvChunkReader>> CsvChunkReader::Open(
    const std::string& path, const CsvReadOptions& options,
    MemoryTracker* tracker) {
  auto reader = std::unique_ptr<CsvChunkReader>(new CsvChunkReader());
  LAFP_RETURN_NOT_OK(reader->Init(path, options, tracker));
  return reader;
}

CsvChunkReader::~CsvChunkReader() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

Status CsvChunkReader::Init(const std::string& path,
                            const CsvReadOptions& options,
                            MemoryTracker* tracker) {
  path_ = path;
  options_ = options;
  tracker_ = tracker != nullptr ? tracker : MemoryTracker::Default();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    return Status::IOError("empty CSV file '" + path + "'");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot map '" + path + "': " +
                           std::strerror(errno));
  }
  ::madvise(map, size_, MADV_SEQUENTIAL);
  data_ = static_cast<const char*>(map);
  header_ = SplitCsvLine(TakeRecord(data_, size_, &pos_), options_.delimiter);

  // Resolve usecols -> field indexes, preserving file order like pandas.
  std::vector<size_t> selected;
  if (options_.usecols.empty()) {
    for (size_t i = 0; i < header_.size(); ++i) selected.push_back(i);
  } else {
    for (const auto& want : options_.usecols) {
      auto it = std::find(header_.begin(), header_.end(), want);
      if (it == header_.end()) {
        return Status::KeyError("usecols: no column '" + want + "' in '" +
                                path + "'");
      }
      selected.push_back(static_cast<size_t>(it - header_.begin()));
    }
    std::sort(selected.begin(), selected.end());
  }
  for (size_t idx : selected) {
    out_names_.push_back(header_[idx]);
    out_field_index_.push_back(idx);
  }
  InferTypes();
  return Status::OK();
}

void CsvChunkReader::InferTypes() {
  out_types_.assign(out_names_.size(), DataType::kNull);
  wants_category_.assign(out_names_.size(), false);
  std::vector<size_t> inferred;  // output columns without a dtype override
  for (size_t c = 0; c < out_names_.size(); ++c) {
    auto it = options_.dtypes.find(out_names_[c]);
    if (it == options_.dtypes.end()) {
      inferred.push_back(c);
    } else if (it->second == DataType::kCategory) {
      out_types_[c] = DataType::kString;
      wants_category_[c] = true;
    } else {
      out_types_[c] = it->second;
    }
  }
  if (inferred.empty()) return;
  // Sample the first infer_rows records, then rewind to the first one.
  const size_t data_start = pos_;
  std::string_view record;
  for (size_t r = 0; r < options_.infer_rows && NextRecord(&record); ++r) {
    FieldSplitter fields(record, options_.delimiter, &scratch_);
    std::string_view field;
    size_t j = 0;
    for (size_t k = 0; j < inferred.size() && fields.Next(&field); ++k) {
      for (; j < inferred.size() && out_field_index_[inferred[j]] == k; ++j) {
        DataType& t = out_types_[inferred[j]];
        if (t != DataType::kString) t = UnifyTypes(t, InferValueType(field));
      }
    }
  }
  pos_ = data_start;
  for (size_t c : inferred) {
    if (out_types_[c] == DataType::kNull) {
      out_types_[c] = DataType::kString;  // all blank
    }
  }
}

size_t CsvChunkReader::RecordsAllowed(size_t rows) const {
  if (options_.nrows == 0) return rows;
  return std::min(rows, options_.nrows - rows_emitted_);
}

bool CsvChunkReader::NextRecord(std::string_view* record) {
  while (pos_ < size_) {
    *record = TakeRecord(data_, size_, &pos_);
    if (!record->empty()) return true;
  }
  return false;
}

Status CsvChunkReader::ParseRecordInto(
    std::string_view record, std::vector<ColumnBuilder>* builders) {
  FieldSplitter fields(record, options_.delimiter, &scratch_);
  const size_t ncols = out_field_index_.size();
  std::string_view field;
  size_t c = 0;
  for (size_t k = 0; c < ncols && fields.Next(&field); ++k) {
    for (; c < ncols && out_field_index_[c] == k; ++c) {
      if (!AppendParsed(&(*builders)[c], out_types_[c], field)) {
        return Status::IOError("unparseable field in '" + path_ + "'");
      }
    }
  }
  for (; c < ncols; ++c) (*builders)[c].AppendNull();
  return Status::OK();
}

Result<std::optional<DataFrame>> CsvChunkReader::NextChunk(size_t rows) {
  if (rows == 0) return Status::Invalid("chunk size must be positive");
  static auto* chunk_counter =
      metrics::Registry::Global()->GetCounter("csv.chunks");
  chunk_counter->Increment();
  LAFP_RETURN_NOT_OK(FaultPoint("csv.read"));
  rows = RecordsAllowed(rows);
  if (rows == 0 || pos_ >= size_) return std::optional<DataFrame>();
  std::vector<ColumnBuilder> builders;
  builders.reserve(out_names_.size());
  for (size_t c = 0; c < out_names_.size(); ++c) {
    builders.emplace_back(out_types_[c], tracker_);
    builders.back().Reserve(rows);
  }
  size_t built = 0;
  std::string_view record;
  while (built < rows && NextRecord(&record)) {
    LAFP_RETURN_NOT_OK(ParseRecordInto(record, &builders));
    ++built;
  }
  if (built == 0) return std::optional<DataFrame>();
  rows_emitted_ += built;

  std::vector<ColumnPtr> cols;
  cols.reserve(builders.size());
  for (size_t c = 0; c < builders.size(); ++c) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, builders[c].Finish());
    if (wants_category_[c]) {
      LAFP_ASSIGN_OR_RETURN(col, df::CategorizeStrings(*col, tracker_));
    }
    cols.push_back(std::move(col));
  }
  LAFP_ASSIGN_OR_RETURN(DataFrame chunk,
                        DataFrame::Make(out_names_, std::move(cols)));
  return std::optional<DataFrame>(std::move(chunk));
}

size_t CsvChunkReader::SkipRecords(size_t n) {
  n = RecordsAllowed(n);
  size_t skipped = 0;
  std::string_view record;
  while (skipped < n && NextRecord(&record)) ++skipped;
  rows_emitted_ += skipped;
  return skipped;
}

Result<DataFrame> ReadCsv(const std::string& path,
                          const CsvReadOptions& options,
                          MemoryTracker* tracker) {
  trace::Span span("csv:read", "io");
  if (span.active()) span.AddArg("path", path);
  LAFP_ASSIGN_OR_RETURN(auto reader,
                        CsvChunkReader::Open(path, options, tracker));
  std::vector<DataFrame> chunks;
  while (true) {
    LAFP_ASSIGN_OR_RETURN(auto chunk,
                          reader->NextChunk(1 << 16));
    if (!chunk.has_value()) break;
    chunks.push_back(std::move(*chunk));
  }
  if (chunks.empty()) {
    // Header-only file: empty columns of the inferred types.
    std::vector<ColumnPtr> cols;
    for (size_t c = 0; c < reader->column_names().size(); ++c) {
      DataType t = reader->column_types()[c];
      ColumnBuilder b(t == DataType::kCategory ? DataType::kString : t,
                      tracker);
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, b.Finish());
      cols.push_back(std::move(col));
    }
    return DataFrame::Make(reader->column_names(), std::move(cols));
  }
  if (chunks.size() == 1) return std::move(chunks[0]);
  return df::Concat(chunks);
}

Result<std::vector<std::string>> ReadCsvHeaderNames(const std::string& path,
                                                    char delimiter) {
  // Reads only as far as the header record ends, with the tokenizer's own
  // TakeRecord. The rewriter and plan fingerprinting read headers on every
  // request, cache hits included, and an mmap/munmap pair per call cost
  // serve_mix hits about a quarter of their latency under load.
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open '" + path + "'");
  std::string text;
  char block[4096];
  size_t end = 0;
  std::string_view header;
  do {
    in.read(block, sizeof(block));
    text.append(block, static_cast<size_t>(in.gcount()));
    end = 0;
    header = TakeRecord(text.data(), text.size(), &end);
  } while (end == text.size() && in);
  if (text.empty()) return Status::IOError("empty CSV file '" + path + "'");
  return SplitCsvLine(header, delimiter);
}

namespace {

/// A field is quoted when it holds the delimiter, a quote or a line break
/// ('\r' too: the reader strips a '\r' that ends an unquoted record).
bool NeedsQuoting(const std::string& s, char delimiter) {
  const char specials[] = {delimiter, '"', '\n', '\r'};
  return s.find_first_of(specials, 0, sizeof(specials)) != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

namespace {

Status CsvWriteError(const std::string& path) {
  std::string detail = "write failed for '" + path + "'";
  if (errno != 0) {
    detail += ": ";
    detail += std::strerror(errno);
  }
  return Status::IOError(detail);
}

}  // namespace

Status WriteCsv(const DataFrame& frame, const std::string& path) {
  trace::Span span("csv:write", "io");
  if (span.active()) {
    span.AddArg("path", path);
    span.AddArg("rows", static_cast<int64_t>(frame.num_rows()));
  }
  errno = 0;
  LAFP_RETURN_NOT_OK(FaultPoint("csv.write"));
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  for (size_t i = 0; i < frame.names().size(); ++i) {
    if (i > 0) out << ',';
    const std::string& name = frame.names()[i];
    out << (NeedsQuoting(name, ',') ? QuoteField(name) : name);
  }
  out << '\n';
  for (size_t r = 0; r < frame.num_rows(); ++r) {
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      if (c > 0) out << ',';
      const df::Column& col = *frame.column(c);
      if (!col.IsValid(r)) continue;  // empty field == null
      std::string v = col.ValueString(r);
      out << (NeedsQuoting(v, ',') ? QuoteField(v) : v);
    }
    out << '\n';
    // A full disk fails the stream mid-file; formatting the remaining
    // rows into a dead stream would only hide how far the write got.
    if (!out.good()) return CsvWriteError(path);
  }
  out.flush();
  if (!out.good()) return CsvWriteError(path);
  return Status::OK();
}

}  // namespace lafp::io
