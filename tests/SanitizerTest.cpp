//===- SanitizerTest.cpp - The sanitizer binaries really are instrumented -===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// A sanitizer test binary gets -fsanitize only through the PUBLIC compile
// options of the closer_asan / closer_tsan library it links
// (tests/CMakeLists.txt). Should a library lose those options, every
// Asan.* / Tsan.* test would still pass, just uninstrumented; these cases
// fail instead. CLOSER_EXPECT_ASAN / CLOSER_EXPECT_TSAN name the sanitizer
// the build registered the binary for.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#if defined(CLOSER_EXPECT_ASAN)
TEST(SanitizerTest, AddressSanitizerIsOn) {
#ifndef __SANITIZE_ADDRESS__
  FAIL() << "compiled without -fsanitize=address";
#endif
}
#elif defined(CLOSER_EXPECT_TSAN)
TEST(SanitizerTest, ThreadSanitizerIsOn) {
#ifndef __SANITIZE_THREAD__
  FAIL() << "compiled without -fsanitize=thread";
#endif
}
#else
#error "SanitizerTest.cpp belongs to a closer_add_sanitizer_test binary"
#endif
