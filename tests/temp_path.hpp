// Per-test scratch file paths. ctest runs every gtest case as its own
// process, in parallel, so a fixed name under ::testing::TempDir() lets one
// case overwrite or delete another's file; this name carries the running
// test's full name and the process id instead.
#pragma once

#include <unistd.h>

#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace popbean {

// TempDir()/popbean_<suite>.<test>_<pid>_<name>. Call it from a test body,
// SetUp or a fixture member initializer (where the current test is known).
inline std::string test_temp_path(std::string_view name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  std::string unique = "popbean_";
  unique += test->test_suite_name();
  unique += '.';
  unique += test->name();
  unique += '_';
  unique += std::to_string(::getpid());
  unique += '_';
  unique += name;
  for (char& c : unique) {
    if (c == '/') c = '_';  // parameterized tests: Prefix/Suite.Name/0
  }
  path += unique;
  return path;
}

}  // namespace popbean
