// Scratch paths for tests that touch the filesystem. gtest_discover_tests
// runs every test (and every parameterised instance) as its own process,
// and `ctest -j` runs those processes side by side, so a path shared by two
// tests is a race. ScratchPath() names a path after the running test's
// full name — suite (with its instantiation prefix), test, parameter — and
// the process id, so no two tests, and no two runs of one test, collide.

#ifndef BBF_TESTS_SCRATCH_PATH_H_
#define BBF_TESTS_SCRATCH_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace bbf {

/// `::testing::TempDir()` (which ends in '/') joined with
/// "bbf_<suite>.<test>_<pid>_<leaf>", the '/' of a parameterised name
/// turned into '_'. Nothing is created or removed: callers use the result
/// as a file or a directory and clear it themselves.
inline std::string ScratchPath(std::string_view leaf) {
  std::string name = "bbf_";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += info->test_suite_name();
    name += '.';
    name += info->name();
  }
  name += '_';
  name += std::to_string(::getpid());
  name += '_';
  name += leaf;
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

}  // namespace bbf

#endif  // BBF_TESTS_SCRATCH_PATH_H_
