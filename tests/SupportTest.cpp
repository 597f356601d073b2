//===- SupportTest.cpp - Diagnostics / RNG / SourceLoc tests -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Random.h"
#include "support/SourceLoc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

using namespace closer;

namespace {

TEST(SourceLocTest, ValidityAndRendering) {
  SourceLoc Unknown;
  EXPECT_FALSE(Unknown.isValid());
  EXPECT_EQ(Unknown.str(), "<unknown>");

  SourceLoc Loc(12, 34);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:34");
  EXPECT_EQ(Loc, SourceLoc(12, 34));
  EXPECT_FALSE(Loc == SourceLoc(12, 35));
}

TEST(DiagnosticsTest, CountsAndSeverities) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "be careful");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 3), "went wrong");
  Diags.note(SourceLoc(), "context here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);

  std::string Text = Diags.str();
  EXPECT_NE(Text.find("warning: 1:1: be careful"), std::string::npos);
  EXPECT_NE(Text.find("error: 2:3: went wrong"), std::string::npos);
  EXPECT_NE(Text.find("note: context here"), std::string::npos);

  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Diverged = false;
  for (int I = 0; I != 10; ++I)
    Diverged |= A.next() != B.next();
  EXPECT_TRUE(Diverged);
}

TEST(RngTest, ZeroSeedIsRemapped) {
  Rng Z(0);
  EXPECT_NE(Z.next(), 0u);
}

TEST(RngTest, BelowAndRangeStayInBounds) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.below(10);
    EXPECT_LT(V, 10u);
    int64_t W = R.range(-3, 3);
    EXPECT_GE(W, -3);
    EXPECT_LE(W, 3);
    Seen.insert(W);
  }
  // All seven values of the range appear over 1000 draws.
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, ChanceIsroughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I != 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2000);
  EXPECT_LT(Hits, 3000);
}

TEST(ArenaTest, BumpAllocationAndGeometricGrowth) {
  support::Arena A(64);
  EXPECT_EQ(A.bytesFromUpstream(), 0u);
  void *P1 = A.allocate(16, 8);
  ASSERT_NE(P1, nullptr);
  uint64_t AfterFirst = A.bytesFromUpstream();
  EXPECT_GE(AfterFirst, 64u);
  // Fits in the first block: no new upstream traffic.
  void *P2 = A.allocate(16, 8);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(A.bytesFromUpstream(), AfterFirst);
  // Outgrows it: a new (geometrically larger) block is fetched.
  EXPECT_NE(A.allocate(512, 8), nullptr);
  EXPECT_GT(A.bytesFromUpstream(), AfterFirst);
  EXPECT_GE(A.blocksFromUpstream(), 2u);
}

TEST(ArenaTest, AlignmentIsHonored) {
  support::Arena A(128);
  EXPECT_NE(A.allocate(1, 1), nullptr); // Skew the bump pointer.
  for (size_t Align : {size_t{2}, size_t{8}, size_t{16}, size_t{64}}) {
    void *P = A.allocate(8, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(ArenaTest, ResetReusesBlocksWithoutUpstreamTraffic) {
  support::Arena A(256);
  for (int I = 0; I != 8; ++I)
    EXPECT_NE(A.allocate(64, 8), nullptr);
  uint64_t Peak = A.bytesFromUpstream();
  // Steady state: reset + same workload touches the heap zero times.
  for (int Round = 0; Round != 10; ++Round) {
    A.reset();
    for (int I = 0; I != 8; ++I)
      EXPECT_NE(A.allocate(64, 8), nullptr);
    EXPECT_EQ(A.bytesFromUpstream(), Peak) << "round " << Round;
  }
}

TEST(ArenaTest, PmrVectorRunsOnArena) {
  support::Arena A(4096);
  std::pmr::vector<uint64_t> V(&A);
  V.resize(100, 7);
  EXPECT_GT(A.bytesFromUpstream(), 0u);
  EXPECT_EQ(V[99], 7u);
  // Copy construction does NOT propagate the arena resource: a persistent
  // copy of arena scratch lands on the default (heap) resource — the
  // property Footprints.h's persistent-copy pattern depends on.
  std::pmr::vector<uint64_t> Copy(V);
  EXPECT_EQ(Copy.get_allocator().resource(),
            std::pmr::get_default_resource());
}

TEST(ObjectPoolTest, RecyclesAndCountsFresh) {
  support::ObjectPool<std::string> Pool;
  EXPECT_EQ(Pool.fresh(), 0u);
  std::string S = Pool.acquire();
  EXPECT_EQ(Pool.fresh(), 1u);
  S = "payload";
  Pool.release(std::move(S));
  EXPECT_EQ(Pool.idle(), 1u);
  // A pool hit: no fresh construction.
  std::string T = Pool.acquire();
  EXPECT_EQ(Pool.fresh(), 1u);
  EXPECT_EQ(Pool.idle(), 0u);
}

TEST(VectorPoolTest, AcquireClearsButKeepsCapacity) {
  support::VectorPool<int> Pool;
  std::vector<int> V = Pool.acquire();
  EXPECT_EQ(Pool.fresh(), 1u);
  V.assign(1000, 42);
  Pool.release(std::move(V));
  std::vector<int> W = Pool.acquire();
  EXPECT_EQ(Pool.fresh(), 1u) << "recycled, not fresh";
  EXPECT_TRUE(W.empty()) << "acquire must clear recycled contents";
  EXPECT_GE(W.capacity(), 1000u) << "capacity is the whole point";
}

TEST(VectorPoolTest, SteadyStateFreshCountIsHighWaterBounded) {
  // The property the bench's steady-state-allocation gate builds on:
  // fresh() tracks the maximum number of simultaneously-live vectors,
  // not the total acquire() traffic.
  support::VectorPool<int> Pool;
  for (int Round = 0; Round != 100; ++Round) {
    std::vector<std::vector<int>> Live;
    for (int I = 0; I != 5; ++I) {
      Live.push_back(Pool.acquire());
      Live.back().push_back(Round + I);
    }
    for (std::vector<int> &V : Live)
      Pool.release(std::move(V));
  }
  EXPECT_EQ(Pool.fresh(), 5u);
}

} // namespace
