#pragma once
// Scoped test fixtures shared across the kernel-cache test suites: a
// temporary directory that is deleted with its contents on destruction,
// and an environment-variable override that restores the old value.

#include <stdlib.h>  // mkdtemp, setenv, unsetenv (POSIX)

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace glaf::testing {

/// A fresh directory `glaf_cache_<tag>_XXXXXX` under the gtest temp root,
/// so a cache test sees exactly its own entries. The directory and
/// everything in it are removed when the object is destroyed.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    std::string tmpl =
        ::testing::TempDir() + "glaf_cache_" + tag + "_XXXXXX";
    created_ = mkdtemp(tmpl.data()) != nullptr;
    EXPECT_TRUE(created_) << "mkdtemp failed for " << tmpl;
    path_ = tmpl;
  }
  ~ScopedTempDir() {
    if (!created_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool created_ = false;
};

/// Scoped environment override (restores the previous value).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace glaf::testing
