// A fresh directory per test for files a test writes and reads back.
//
// ctest -j runs test cases as separate processes that share
// ::testing::TempDir(), so two tests writing the same file name there (a
// run's checkpoint-NNNN.snap, say) can read each other's output.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace custody::testing_support {

/// A new, uniquely named directory under the gtest temp dir, removed with
/// its contents when the object goes out of scope.
class FreshTempDir {
 public:
  explicit FreshTempDir(const std::string& prefix)
      : path_(::testing::TempDir() + prefix + "-XXXXXX") {
    if (mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("FreshTempDir: cannot create " + path_);
    }
  }
  ~FreshTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  FreshTempDir(const FreshTempDir&) = delete;
  FreshTempDir& operator=(const FreshTempDir&) = delete;

  /// The directory, without a trailing slash.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace custody::testing_support
