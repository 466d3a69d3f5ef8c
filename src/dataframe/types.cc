#include "dataframe/types.h"

#include <cstdio>

#include "common/string_util.h"

namespace lafp::df {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "float64";
    case DataType::kString:
      return "str";
    case DataType::kTimestamp:
      return "datetime";
    case DataType::kCategory:
      return "category";
  }
  return "?";
}

Result<DataType> DataTypeFromName(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "bool") return DataType::kBool;
  if (n == "int" || n == "int64" || n == "int32") return DataType::kInt64;
  if (n == "float" || n == "float64" || n == "float32" || n == "double") {
    return DataType::kDouble;
  }
  if (n == "str" || n == "string" || n == "object") return DataType::kString;
  if (n == "datetime" || n == "datetime64" || n == "timestamp") {
    return DataType::kTimestamp;
  }
  if (n == "category") return DataType::kCategory;
  return Status::Invalid("unknown dtype name: " + name);
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kBool || t == DataType::kTimestamp;
}

Result<double> Scalar::AsDouble() const {
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(int_value());
    case DataType::kDouble:
      return double_value();
    default:
      return Status::TypeError(std::string("scalar of type ") +
                               DataTypeName(type_) + " is not numeric");
  }
}

std::string Scalar::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NaN";
    case DataType::kBool:
      return bool_value() ? "True" : "False";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kDouble:
      return FormatDouble(double_value());
    case DataType::kString:
    case DataType::kCategory:
      return string_value();
    case DataType::kTimestamp:
      return FormatTimestamp(int_value());
  }
  return "?";
}

bool Scalar::Equals(const Scalar& other) const {
  if (type_ != other.type_) return false;
  return value_ == other.value_;
}

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMean:
      return "mean";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kNunique:
      return "nunique";
  }
  return "?";
}

Result<AggFunc> AggFuncFromName(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "sum") return AggFunc::kSum;
  if (n == "mean" || n == "avg") return AggFunc::kMean;
  if (n == "count" || n == "size") return AggFunc::kCount;
  if (n == "min") return AggFunc::kMin;
  if (n == "max") return AggFunc::kMax;
  if (n == "nunique") return AggFunc::kNunique;
  return Status::Invalid("unknown aggregate function: " + name);
}

const char* ArithOpSymbol(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

namespace {

/// Reads an unsigned decimal field of 1-9 digits at `*i`.
bool ParseTimestampField(std::string_view s, size_t* i, int* out) {
  const size_t start = *i;
  int v = 0;
  while (*i < s.size() && *i - start < 10 && s[*i] >= '0' && s[*i] <= '9') {
    v = v * 10 + (s[*i] - '0');
    ++*i;
  }
  if (*i == start || *i - start > 9) return false;
  *out = v;
  return true;
}

bool ExpectChar(std::string_view s, size_t* i, char c) {
  if (*i >= s.size() || s[*i] != c) return false;
  ++*i;
  return true;
}

}  // namespace

Result<int64_t> ParseTimestamp(std::string_view s) {
  const std::string_view t = Trim(s);
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, sec = 0;
  size_t i = 0;
  bool ok = ParseTimestampField(t, &i, &y) && ExpectChar(t, &i, '-') &&
            ParseTimestampField(t, &i, &mo) && ExpectChar(t, &i, '-') &&
            ParseTimestampField(t, &i, &d);
  if (ok && i < t.size()) {
    const size_t time_start = i;
    while (i < t.size() && (t[i] == ' ' || t[i] == '\t')) ++i;
    ok = i > time_start && ParseTimestampField(t, &i, &h) &&
         ExpectChar(t, &i, ':') && ParseTimestampField(t, &i, &mi) &&
         ExpectChar(t, &i, ':') && ParseTimestampField(t, &i, &sec) &&
         i == t.size();
  }
  if (!ok) {
    return Status::Invalid("cannot parse timestamp: '" + std::string(s) +
                           "'");
  }
  if (mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 ||
      sec > 60) {
    return Status::Invalid("timestamp out of range: '" + std::string(s) +
                           "'");
  }
  return DaysFromCivil(y, mo, d) * 86400 + h * 3600 + mi * 60 + sec;
}

std::string FormatTimestamp(int64_t ts) {
  int64_t days = ts / 86400;
  int64_t rem = ts % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", y, m, d,
                static_cast<int>(rem / 3600),
                static_cast<int>((rem % 3600) / 60),
                static_cast<int>(rem % 60));
  return buf;
}

int DayOfWeek(int64_t ts) {
  int64_t days = ts / 86400;
  if (ts % 86400 < 0) days -= 1;
  // 1970-01-01 was a Thursday (pandas dayofweek: Monday=0 -> Thursday=3).
  int64_t dow = (days + 3) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

int HourOfDay(int64_t ts) {
  int64_t rem = ts % 86400;
  if (rem < 0) rem += 86400;
  return static_cast<int>(rem / 3600);
}

int MonthOf(int64_t ts) {
  int64_t days = ts / 86400;
  if (ts % 86400 < 0) days -= 1;
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return m;
}

int YearOf(int64_t ts) {
  int64_t days = ts / 86400;
  if (ts % 86400 < 0) days -= 1;
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int DayOfMonth(int64_t ts) {
  int64_t days = ts / 86400;
  if (ts % 86400 < 0) days -= 1;
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return d;
}

}  // namespace lafp::df
