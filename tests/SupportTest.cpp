//===- tests/SupportTest.cpp - RNG, table and number parsing --------------===//

#include "support/ParseNumber.h"
#include "support/Rng.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <set>

using namespace fpint;

namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SeedsDecorrelate) {
  Rng A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I < 1000; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 5u);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(R.nextBelow(4));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng R(17);
  unsigned Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2200u);
  EXPECT_LT(Hits, 2800u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(19);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, ReseedRestartsStream) {
  Rng R(23);
  uint64_t First = R.next();
  R.next();
  R.reseed(23);
  EXPECT_EQ(R.next(), First);
}

TEST(Table, FormatsCells) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(0.5, 0), "50%");
  EXPECT_EQ(Table::num(1234567), "1234567");
}

TEST(Table, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "22"});
  // Render to a memstream and check alignment survived.
  char *Buf = nullptr;
  size_t Size = 0;
  FILE *Mem = open_memstream(&Buf, &Size);
  ASSERT_NE(Mem, nullptr);
  T.print(Mem);
  std::fclose(Mem);
  std::string Out(Buf, Size);
  free(Buf);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
  // Both data rows start their second column at the same offset.
  size_t Row1 = Out.find("\na ");
  size_t V1 = Out.find('1', Row1);
  size_t Row2 = Out.find("\nlonger-name");
  size_t V2 = Out.find("22", Row2);
  ASSERT_NE(Row1, std::string::npos);
  ASSERT_NE(Row2, std::string::npos);
  EXPECT_EQ(V1 - Row1, V2 - Row2);
}

TEST(Table, ToleratesShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"only-one"});
  char *Buf = nullptr;
  size_t Size = 0;
  FILE *Mem = open_memstream(&Buf, &Size);
  T.print(Mem);
  std::fclose(Mem);
  std::string Out(Buf, Size);
  free(Buf);
  EXPECT_NE(Out.find("only-one"), std::string::npos);
}

TEST(ParseNumber, TakesOnlyAWholeNumberInRange) {
  using support::parseNumber;
  int I = 7;
  EXPECT_TRUE(parseNumber("42", 0, 100, I));
  EXPECT_EQ(I, 42);
  for (const char *Bad : {"", "5OO", "abc", " 5", "5 ", "101", "-1", "1e2"})
    EXPECT_FALSE(parseNumber(Bad, 0, 100, I)) << Bad;
  EXPECT_EQ(I, 42);

  uint64_t Seed = 0;
  EXPECT_TRUE(parseNumber<uint64_t>("0xffffffffffffffff", 0, UINT64_MAX,
                                    Seed, 0));
  EXPECT_EQ(Seed, UINT64_MAX);
  EXPECT_FALSE(parseNumber<uint64_t>("-1", 0, UINT64_MAX, Seed, 0));
  EXPECT_FALSE(parseNumber<uint64_t>("0x1g", 0, UINT64_MAX, Seed, 0));

  double D = 0;
  EXPECT_TRUE(parseNumber("2.5", 0.0, 10.0, D));
  EXPECT_EQ(D, 2.5);
  for (const char *Bad : {"nan", "inf", "2.5x", "11"})
    EXPECT_FALSE(parseNumber(Bad, 0.0, 10.0, D)) << Bad;
}

} // namespace
