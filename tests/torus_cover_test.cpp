#include <gtest/gtest.h>

#include "ccov/extensions/torus_cover.hpp"

using namespace ccov::extensions;

TEST(TorusCover, SmallTorusValid) {
  const auto tc = cover_torus_all_to_all(3, 3);
  EXPECT_EQ(tc.row_covers.size(), 3u);
  EXPECT_EQ(tc.col_covers.size(), 3u);
  EXPECT_TRUE(validate_torus_cover(tc));
  EXPECT_GE(tc.total_cycles, tc.lower_bound);
}

TEST(TorusCover, RectangularTorusValid) {
  const auto tc = cover_torus_all_to_all(3, 5);
  EXPECT_TRUE(validate_torus_cover(tc));
}

TEST(TorusCover, LargerTorusValid) {
  const auto tc = cover_torus_all_to_all(4, 6);
  EXPECT_TRUE(validate_torus_cover(tc));
  EXPECT_GT(tc.total_cycles, 0u);
}

TEST(TorusCover, RejectsDegenerateDimensions) {
  EXPECT_THROW(cover_torus_all_to_all(2, 5), std::invalid_argument);
  EXPECT_THROW(cover_torus_all_to_all(5, 2), std::invalid_argument);
}

TEST(TorusCover, RowDemandScalesWithColumns) {
  // Every row ring carries the row legs of all requests originating in
  // that row: C(cols,2) distinct chords at least.
  const auto tc = cover_torus_all_to_all(3, 6);
  for (const auto& cov : tc.row_covers) EXPECT_GT(cov.size(), 0u);
}

TEST(TorusCover, ValidationCatchesTampering) {
  auto tc = cover_torus_all_to_all(3, 4);
  ASSERT_FALSE(tc.row_covers[0].empty());
  tc.row_covers[0].clear();  // destroy one ring's cover
  EXPECT_FALSE(validate_torus_cover(tc));
}
