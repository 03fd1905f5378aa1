// Whole-file read and write for the command-line tools.
#pragma once

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace aic::tools {

/// The file's bytes; nullopt when it cannot be opened or read.
inline std::optional<std::string> read_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return os.str();
}

/// Replaces the file's contents; false when it cannot be opened or written.
inline bool write_file(const std::filesystem::path& path,
                       const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return bool(out);
}

}  // namespace aic::tools
