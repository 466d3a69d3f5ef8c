#include "dataframe/types.h"

#include <gtest/gtest.h>

namespace lafp::df {
namespace {

TEST(ScalarTest, NullScalar) {
  Scalar s;
  EXPECT_TRUE(s.is_null());
  EXPECT_EQ(s.type(), DataType::kNull);
  EXPECT_EQ(s.ToString(), "NaN");
  EXPECT_FALSE(s.AsDouble().ok());
}

TEST(ScalarTest, TypedScalars) {
  EXPECT_EQ(Scalar::Int(5).int_value(), 5);
  EXPECT_EQ(Scalar::Int(5).ToString(), "5");
  EXPECT_DOUBLE_EQ(Scalar::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Scalar::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Scalar::Bool(true).ToString(), "True");
  EXPECT_EQ(Scalar::String("hi").string_value(), "hi");
}

TEST(ScalarTest, AsDoubleWidens) {
  EXPECT_DOUBLE_EQ(*Scalar::Int(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*Scalar::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(*Scalar::Timestamp(100).AsDouble(), 100.0);
  EXPECT_FALSE(Scalar::String("x").AsDouble().ok());
}

TEST(ScalarTest, Equals) {
  EXPECT_TRUE(Scalar::Int(3).Equals(Scalar::Int(3)));
  EXPECT_FALSE(Scalar::Int(3).Equals(Scalar::Int(4)));
  EXPECT_FALSE(Scalar::Int(3).Equals(Scalar::Double(3.0)));  // typed equality
  EXPECT_TRUE(Scalar::Null().Equals(Scalar::Null()));
}

TEST(DataTypeTest, NamesRoundTrip) {
  EXPECT_EQ(*DataTypeFromName("int64"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromName("float64"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromName("str"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("category"), DataType::kCategory);
  EXPECT_EQ(*DataTypeFromName("datetime"), DataType::kTimestamp);
  EXPECT_EQ(*DataTypeFromName("BOOL"), DataType::kBool);
  EXPECT_FALSE(DataTypeFromName("whatever").ok());
}

TEST(DataTypeTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_TRUE(IsNumeric(DataType::kBool));
  EXPECT_TRUE(IsNumeric(DataType::kTimestamp));
  EXPECT_FALSE(IsNumeric(DataType::kString));
  EXPECT_FALSE(IsNumeric(DataType::kCategory));
}

TEST(AggFuncTest, Names) {
  EXPECT_EQ(*AggFuncFromName("sum"), AggFunc::kSum);
  EXPECT_EQ(*AggFuncFromName("mean"), AggFunc::kMean);
  EXPECT_EQ(*AggFuncFromName("nunique"), AggFunc::kNunique);
  EXPECT_FALSE(AggFuncFromName("median").ok());
  EXPECT_STREQ(AggFuncName(AggFunc::kMax), "max");
}

TEST(CivilTimeTest, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
  int y, m, d;
  CivilFromDays(11017, &y, &m, &d);
  EXPECT_EQ(y, 2000);
  EXPECT_EQ(m, 3);
  EXPECT_EQ(d, 1);
}

TEST(CivilTimeTest, LeapYearHandling) {
  // 2024 is a leap year: Feb 29 exists.
  int64_t feb29 = DaysFromCivil(2024, 2, 29);
  int y, m, d;
  CivilFromDays(feb29, &y, &m, &d);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(d, 29);
  EXPECT_EQ(DaysFromCivil(2024, 3, 1), feb29 + 1);
}

TEST(TimestampTest, ParseAndFormat) {
  auto ts = ParseTimestamp("2023-04-15 10:32:05");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(FormatTimestamp(*ts), "2023-04-15 10:32:05");
  auto date_only = ParseTimestamp("2023-04-15");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(FormatTimestamp(*date_only), "2023-04-15 00:00:00");
}

TEST(TimestampTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("not a date").ok());
  EXPECT_FALSE(ParseTimestamp("2023-13-01").ok());
  EXPECT_FALSE(ParseTimestamp("2023-04-15 25:00:00").ok());
}

TEST(TimestampTest, AcceptsUnpaddedFieldsAndSurroundingWhitespace) {
  const int64_t ref = *ParseTimestamp("2023-04-05 07:08:09");
  EXPECT_EQ(*ParseTimestamp("2023-4-5 7:8:9"), ref);
  EXPECT_EQ(*ParseTimestamp("  2023-04-05 07:08:09\t"), ref);
  EXPECT_EQ(*ParseTimestamp("2023-04-05  \t07:08:09"), ref);
  EXPECT_EQ(*ParseTimestamp(" 2023-4-5 "), *ParseTimestamp("2023-04-05"));
  EXPECT_EQ(*ParseTimestamp("1-1-1"), DaysFromCivil(1, 1, 1) * 86400);
}

TEST(TimestampTest, RejectsTrailingText) {
  // A date followed by anything but a full H:M:S is not a timestamp.
  EXPECT_FALSE(ParseTimestamp("2023-01-02xyz").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 10").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 10:30").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 10:30:00x").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 10:30:00 pm").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02T10:30:00").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-0210:30:00").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01").ok());
  EXPECT_FALSE(ParseTimestamp("2023--01-02").ok());
  EXPECT_FALSE(ParseTimestamp("+2023-01-02").ok());
  EXPECT_FALSE(ParseTimestamp("").ok());
  EXPECT_FALSE(ParseTimestamp("1234567890-01-01").ok());  // > 9 digits
}

TEST(TimestampTest, RangeChecksKept) {
  EXPECT_FALSE(ParseTimestamp("2023-00-10").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-00").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-32").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 24:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 23:60:00").ok());
  EXPECT_FALSE(ParseTimestamp("2023-01-02 23:59:61").ok());
  EXPECT_TRUE(ParseTimestamp("2023-01-02 23:59:60").ok());  // leap second
}

TEST(TimestampTest, ParsesViewsWithoutTerminator) {
  // The parser reads a string_view: bytes past the view are not consulted.
  const std::string buf = "2023-04-15 10:32:05garbage";
  EXPECT_EQ(*ParseTimestamp(std::string_view(buf).substr(0, 19)),
            *ParseTimestamp("2023-04-15 10:32:05"));
  EXPECT_EQ(*ParseTimestamp(std::string_view(buf).substr(0, 10)),
            *ParseTimestamp("2023-04-15"));
}

TEST(TimestampTest, DayOfWeekMatchesPandas) {
  // 1970-01-01 was a Thursday => pandas dayofweek 3.
  EXPECT_EQ(DayOfWeek(0), 3);
  // 2024-01-01 was a Monday => 0.
  EXPECT_EQ(DayOfWeek(*ParseTimestamp("2024-01-01")), 0);
  // 2024-01-07 was a Sunday => 6.
  EXPECT_EQ(DayOfWeek(*ParseTimestamp("2024-01-07")), 6);
}

TEST(TimestampTest, FieldExtraction) {
  int64_t ts = *ParseTimestamp("2021-12-31 23:45:10");
  EXPECT_EQ(YearOf(ts), 2021);
  EXPECT_EQ(MonthOf(ts), 12);
  EXPECT_EQ(DayOfMonth(ts), 31);
  EXPECT_EQ(HourOfDay(ts), 23);
}

TEST(TimestampTest, PreEpochDates) {
  int64_t ts = *ParseTimestamp("1969-12-31 23:00:00");
  EXPECT_LT(ts, 0);
  EXPECT_EQ(FormatTimestamp(ts), "1969-12-31 23:00:00");
  EXPECT_EQ(YearOf(ts), 1969);
  EXPECT_EQ(DayOfWeek(ts), 2);  // Wednesday
}

}  // namespace
}  // namespace lafp::df
