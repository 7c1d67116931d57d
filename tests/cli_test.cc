#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

// End-to-end smoke test of the pivot_cli binary: generate a CSV, train,
// predict, check the reported accuracy. Locates the binary relative to
// the test binary's working directory (ctest runs in the build tree).

namespace {

std::string RunCommand(const std::string& cmd) {
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return out;
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe)) out += buf;
  pclose(pipe);
  return out;
}

bool BinaryExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

TEST(CliTest, TrainPredictRoundTrip) {
  // The test runs from build/tests; the CLI lives in build/tools.
  std::string cli = "../tools/pivot_cli";
  if (!BinaryExists(cli)) cli = "tools/pivot_cli";  // ctest from build root
  if (!BinaryExists(cli)) GTEST_SKIP() << "pivot_cli not found";

  // Linearly separable two-class CSV.
  const std::string train_csv = "/tmp/pivot_cli_test_train.csv";
  const std::string test_csv = "/tmp/pivot_cli_test_test.csv";
  {
    std::ofstream tr(train_csv), te(test_csv);
    for (int i = 0; i < 80; ++i) {
      const int c = i % 2;
      auto& out = (i < 60) ? tr : te;
      for (int j = 0; j < 4; ++j) out << (c ? 3.0 : 0.0) + 0.01 * i << ",";
      out << c << "\n";
    }
  }

  std::string train_out =
      RunCommand(cli + " train --data " + train_csv +
          " --out /tmp/pivot_cli_test_model --parties 2 --depth 2 "
          "--splits 4 --key-bits 256");
  ASSERT_NE(train_out.find("done:"), std::string::npos) << train_out;

  std::string predict_out =
      RunCommand(cli + " predict --data " + test_csv +
          " --model /tmp/pivot_cli_test_model --parties 2");
  // Perfectly separable data: the tree must classify it all correctly.
  EXPECT_NE(predict_out.find("accuracy: 1.0000"), std::string::npos)
      << predict_out;

  std::string usage = RunCommand(cli + " bogus");
  EXPECT_NE(usage.find("usage:"), std::string::npos);
  std::remove(train_csv.c_str());
  std::remove(test_csv.c_str());
}

TEST(CliTest, RejectsOutOfRangeCryptoThreads) {
  std::string cli = "../tools/pivot_cli";
  if (!BinaryExists(cli)) cli = "tools/pivot_cli";
  if (!BinaryExists(cli)) GTEST_SKIP() << "pivot_cli not found";
  // The flag is checked before any input is read, so a rejected value
  // never reaches training or a thread pool (the data paths do not exist).
  const std::string train =
      cli + " train --data /nonexistent/train.csv --out /nonexistent/m";
  const std::string serve =
      cli + " serve --data /nonexistent/req.csv --model /nonexistent/m";
  for (const std::string& cmd : {train, serve}) {
    for (const char* value : {"-1", "257"}) {
      const std::string out =
          RunCommand(cmd + " --crypto-threads " + value);
      EXPECT_NE(out.find("crypto_threads must be in [0, 256]"),
                std::string::npos)
          << cmd << " " << value << ": " << out;
    }
  }
}

}  // namespace
