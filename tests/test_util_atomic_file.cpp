#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mnsim::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("mnsim_atomic_" + std::to_string(::getpid()));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

TEST(AtomicFile, WritesContent) {
  TempDir tmp;
  const std::string p = tmp.path("a.txt");
  atomic_write_file(p, "hello\n");
  EXPECT_EQ(slurp(p), "hello\n");
}

TEST(AtomicFile, ReplacesExistingFile) {
  TempDir tmp;
  const std::string p = tmp.path("a.txt");
  atomic_write_file(p, "old");
  atomic_write_file(p, "new contents");
  EXPECT_EQ(slurp(p), "new contents");
}

TEST(AtomicFile, ThrowsOnUnwritableDirectory) {
  EXPECT_THROW(atomic_write_file("/nonexistent-dir/x.txt", "x"),
               std::runtime_error);
}

TEST(AtomicFile, LeavesNoTempFileBehind) {
  TempDir tmp;
  atomic_write_file(tmp.path("a.txt"), "data");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(tmp.dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // only a.txt — the .tmp was renamed away
}

TEST(AtomicFile, EmptyContentMakesEmptyFile) {
  TempDir tmp;
  const std::string p = tmp.path("empty.txt");
  atomic_write_file(p, "");
  EXPECT_TRUE(fs::exists(p));
  EXPECT_EQ(fs::file_size(p), 0u);
}

TEST(DurableAppender, AppendsAcrossReopen) {
  TempDir tmp;
  const std::string p = tmp.path("journal");
  DurableAppender a;
  a.open(p, /*truncate=*/true);
  a.append("one\n");
  a.append("two\n");
  a.close();

  DurableAppender b;
  b.open(p, /*truncate=*/false);
  b.append("three\n");
  b.close();
  EXPECT_EQ(slurp(p), "one\ntwo\nthree\n");
}

TEST(DurableAppender, TruncateDropsOldContents) {
  TempDir tmp;
  const std::string p = tmp.path("journal");
  DurableAppender a;
  a.open(p, /*truncate=*/true);
  a.append("old\n");
  a.close();
  a.open(p, /*truncate=*/true);
  a.append("fresh\n");
  a.close();
  EXPECT_EQ(slurp(p), "fresh\n");
}

TEST(DurableAppender, OpenThrowsOnUnwritablePath) {
  DurableAppender a;
  EXPECT_THROW(a.open("/nonexistent-dir/journal", true), std::runtime_error);
}

}  // namespace
}  // namespace mnsim::util
