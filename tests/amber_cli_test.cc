// End-to-end tests of the amber_cli example: build -> stats -> query on the
// paper example through the real binary, and corrupt or foreign artifacts
// that must end in exit status 1 with an "error:" line, never a signal.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/paper_example.h"
#include "util/amf.h"

namespace amber {
namespace {

struct CliRun {
  int exit_code = -1;  // -1: killed by a signal or not run
  std::string output;  // stdout and stderr, interleaved
};

CliRun RunCli(const std::string& args) {
  const std::string command = std::string("'") + AMBER_CLI_PATH + "' " +
                              args + " 2>&1";
  CliRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[256];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string Quoted(const std::string& path) { return "'" + path + "'"; }

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

bool HasErrorLine(const std::string& output) {
  return output.rfind("error: ", 0) == 0 ||
         output.find("\nerror: ") != std::string::npos;
}

class AmberCliTest : public ::testing::Test {
 protected:
  // Paths are unique per process: ctest runs each test as its own process.
  void SetUp() override {
    const std::string base =
        testing::TempDir() + "/amber_cli_" + std::to_string(::getpid());
    data_ = base + ".nt";
    query_ = base + ".rq";
    artifact_ = base + ".amber";
    WriteAll(data_, kPaperExampleNTriples);
    WriteAll(query_, kPaperExampleQuery);
  }

  void TearDown() override {
    for (const std::string* path : {&data_, &query_, &artifact_}) {
      std::remove(path->c_str());
    }
  }

  void Build() {
    CliRun run = RunCli("build " + Quoted(data_) + " " + Quoted(artifact_));
    ASSERT_EQ(run.exit_code, 0) << run.output;
  }

  // Rewrites the artifact as `bytes`, then demands that both reading
  // commands fail cleanly; returns the query command's output.
  std::string ExpectCleanFailure(const std::string& bytes) {
    WriteAll(artifact_, bytes);
    CliRun stats = RunCli("stats " + Quoted(artifact_));
    EXPECT_EQ(stats.exit_code, 1) << stats.output;
    EXPECT_TRUE(HasErrorLine(stats.output)) << stats.output;
    CliRun query = RunCli("query " + Quoted(artifact_) + " " +
                          Quoted(query_) + " --count");
    EXPECT_EQ(query.exit_code, 1) << query.output;
    EXPECT_TRUE(HasErrorLine(query.output)) << query.output;
    return query.output;
  }

  std::string data_, query_, artifact_;
};

TEST_F(AmberCliTest, BuildStatsQueryRoundTrip) {
  Build();
  CliRun stats = RunCli("stats " + Quoted(artifact_));
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("vertices:"), std::string::npos)
      << stats.output;
  CliRun query = RunCli("query " + Quoted(artifact_) + " " + Quoted(query_) +
                        " --count");
  ASSERT_EQ(query.exit_code, 0) << query.output;
  EXPECT_EQ(query.output.rfind("2 rows", 0), 0u) << query.output;
}

TEST_F(AmberCliTest, TruncatedArtifactFailsCleanly) {
  Build();
  const std::string bytes = ReadAll(artifact_);
  ASSERT_GT(bytes.size(), 2u);
  for (size_t keep : {bytes.size() / 2, bytes.size() - 1}) {
    ExpectCleanFailure(bytes.substr(0, keep));
  }
}

TEST_F(AmberCliTest, NonArtifactFailsCleanly) {
  ExpectCleanFailure(kPaperExampleNTriples);
}

TEST_F(AmberCliTest, CorruptRTreeRootFailsCleanly) {
  Build();
  std::string bytes = ReadAll(artifact_);
  amf::FileHeader header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint64_t i = 0; i < header.section_count; ++i) {
    amf::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id != 0x3000) continue;  // R-tree meta: u32 root first
    const uint32_t root = 0x7fffff00u;
    std::memcpy(bytes.data() + entry.offset, &root, sizeof(root));
    const std::string output = ExpectCleanFailure(bytes);
    EXPECT_NE(output.find("error: Corruption: rtree root out of range"),
              std::string::npos)
        << output;
    return;
  }
  FAIL() << "artifact has no R-tree meta section";
}

}  // namespace
}  // namespace amber
