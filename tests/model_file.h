// Reads a model file shipped in the source tree, so a test checks the same
// text the CLI tests and examples run instead of an inline copy that can
// drift from it.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

/// The contents of `path`, relative to the repository root. ctest runs a
/// test binary from its build directory, so the root is tried as the
/// working directory and up to two levels above it.
inline std::string read_repo_file(const std::string& path) {
  for (const char* up : {"", "../", "../../"}) {
    std::ifstream in(up + path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      return ss.str();
    }
  }
  ADD_FAILURE() << "cannot locate model file " << path
                << " (run ctest from the build or repo root)";
  return "";
}
