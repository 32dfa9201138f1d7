// Per-test scratch paths. `ctest -j` runs every gtest case, and every
// parameter instance of a case, as its own concurrent process, so a fixed
// file name shared by several cases races (one case truncates or renames
// the file another is reading). scratch_path() keys the name on the running
// case instead.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace melody::testing_support {

/// `TempDir()` + "<suite>.<case>_<stem>", with the '/' of parameterized
/// names ("Threads/Suite", "Case/2") flattened to '_'. Call it from inside
/// a running test (or its fixture).
inline std::string scratch_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "_" + stem;
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + name;
}

}  // namespace melody::testing_support
