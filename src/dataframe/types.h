#ifndef LAFP_DATAFRAME_TYPES_H_
#define LAFP_DATAFRAME_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace lafp::df {

/// Physical column types of the eager engine. kTimestamp is an int64 epoch
/// in seconds; kCategory is a dictionary-encoded string column (int32 codes
/// into a shared dictionary), the paper's §3.6 space optimization.
enum class DataType : int {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kTimestamp = 5,
  kCategory = 6,
};

const char* DataTypeName(DataType t);

/// Parse a dtype name as written in PdScript / metadata files
/// ("int64", "float64", "str", "bool", "datetime", "category").
Result<DataType> DataTypeFromName(const std::string& name);

bool IsNumeric(DataType t);

/// A single nullable value. Strings own their storage.
class Scalar {
 public:
  Scalar() = default;  // null

  static Scalar Null() { return Scalar(); }
  static Scalar Bool(bool v) { return Scalar(DataType::kBool, v); }
  static Scalar Int(int64_t v) { return Scalar(DataType::kInt64, v); }
  static Scalar Double(double v) { return Scalar(DataType::kDouble, v); }
  static Scalar String(std::string v) {
    return Scalar(DataType::kString, std::move(v));
  }
  static Scalar Timestamp(int64_t epoch_seconds) {
    return Scalar(DataType::kTimestamp, epoch_seconds);
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  bool bool_value() const { return std::get<bool>(value_); }
  int64_t int_value() const { return std::get<int64_t>(value_); }
  double double_value() const { return std::get<double>(value_); }
  const std::string& string_value() const {
    return std::get<std::string>(value_);
  }

  /// Numeric widening view (int/bool/timestamp -> double). Fails on
  /// strings/null.
  Result<double> AsDouble() const;

  /// Repr used by print / CSV output / hashing.
  std::string ToString() const;

  bool Equals(const Scalar& other) const;

 private:
  Scalar(DataType t, bool v) : type_(t), value_(v) {}
  Scalar(DataType t, int64_t v) : type_(t), value_(v) {}
  Scalar(DataType t, double v) : type_(t), value_(v) {}
  Scalar(DataType t, std::string v) : type_(t), value_(std::move(v)) {}

  DataType type_ = DataType::kNull;
  std::variant<std::monostate, bool, int64_t, double, std::string> value_;
};

/// Comparison operators for filter predicates.
enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);

/// Aggregate functions for groupby / reductions.
enum class AggFunc : int { kSum, kMean, kCount, kMin, kMax, kNunique };

const char* AggFuncName(AggFunc f);
Result<AggFunc> AggFuncFromName(const std::string& name);

/// Binary arithmetic for column expressions.
enum class ArithOp : int { kAdd, kSub, kMul, kDiv, kMod };

const char* ArithOpSymbol(ArithOp op);

// ---- Civil-time helpers (timestamps are epoch seconds, UTC) ----

/// Days from civil date (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int year, int month, int day);

/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// Parse "Y-M-D" or "Y-M-D H:M:S" (fields may be unpadded; surrounding
/// whitespace is ignored) into epoch seconds. Any other text, including
/// trailing characters after a valid date, is rejected.
Result<int64_t> ParseTimestamp(std::string_view s);

/// Format epoch seconds as "YYYY-MM-DD HH:MM:SS".
std::string FormatTimestamp(int64_t epoch_seconds);

/// Weekday for an epoch value: Monday=0 ... Sunday=6 (pandas dt.dayofweek).
int DayOfWeek(int64_t epoch_seconds);
int HourOfDay(int64_t epoch_seconds);
int MonthOf(int64_t epoch_seconds);
int YearOf(int64_t epoch_seconds);
int DayOfMonth(int64_t epoch_seconds);

}  // namespace lafp::df

#endif  // LAFP_DATAFRAME_TYPES_H_
