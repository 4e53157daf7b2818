// The committed replay inputs under workloads/, read in place: the CI
// replays of serve_smoke.jsonl and check_corpus.jsonl assume today's
// parsers still read them and today's writers render them as below.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "spacefts/check/corpus.hpp"
#include "spacefts/serve/workload.hpp"

namespace {

/// The text of workloads/<name>.
std::string committed(const std::string& name) {
  const std::string path = std::string(SPACEFTS_WORKLOADS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(CommittedWorkloads, CheckCorpusReRendersByteForByte) {
  const std::string text = committed("check_corpus.jsonl");
  const auto specs = spacefts::check::parse_corpus_jsonl(text);
  EXPECT_EQ(specs.size(), 18u);
  EXPECT_EQ(spacefts::check::corpus_to_jsonl(specs), text);
}

TEST(CommittedWorkloads, ServeSmokeParsesAndReRendersToAFixedPoint) {
  namespace ss = spacefts::serve;
  const std::string text = committed("serve_smoke.jsonl");
  const auto items = ss::parse_workload_jsonl(text);
  ASSERT_EQ(items.size(), 200u);
  // The file predates the optional stream field: its render differs from
  // it only by "stream":0 on every line, and is itself a fixed point.
  const std::string once = ss::to_jsonl(items);
  EXPECT_EQ(ss::to_jsonl(ss::parse_workload_jsonl(once)), once);
  std::string without_stream = once;
  const std::string stream = ",\"stream\":0";
  for (auto at = without_stream.find(stream); at != std::string::npos;
       at = without_stream.find(stream, at)) {
    without_stream.erase(at, stream.size());
  }
  EXPECT_EQ(without_stream, text);
}
