// Engine-level streaming (QueryEngine::Stream): rows leave through the
// RowSink in exact Materialize order — serial, parallel (the ordered
// chunk fan-in), DISTINCT, LIMIT — so a streamed result is bit-identical
// to the materialized one, and a stopped stream is an exact prefix.
// Also covers the base-class materialize-and-replay default against a
// baseline engine.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "baseline/triple_store.h"
#include "core/amber_engine.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// Collects streamed rows; optionally stops after `stop_after` rows.
class CollectingRowSink : public RowSink {
 public:
  explicit CollectingRowSink(uint64_t stop_after = 0)
      : stop_after_(stop_after) {}

  bool OnRow(std::span<const std::string> row) override {
    // Reject (without storing) once the quota is reached: StreamResult::rows
    // counts ACCEPTED rows, so collected == reported by construction.
    if (stop_after_ != 0 && rows_.size() >= stop_after_) return false;
    rows_.emplace_back(row.begin(), row.end());
    return true;
  }

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  uint64_t stop_after_;
  std::vector<std::vector<std::string>> rows_;
};

/// The mixed query shapes every test streams: random conjunctive queries
/// plus explicit DISTINCT and LIMIT forms.
std::vector<std::string> QueryTexts(const std::vector<Triple>& data) {
  std::vector<std::string> texts;
  for (int qi = 0; qi < 6; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(data, 1500 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT DISTINCT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 7");
  // A star: groups of several rows each.
  texts.push_back(
      "SELECT ?x ?a ?b WHERE { ?x <urn:p0> ?a . ?x <urn:p1> ?b . }");
  return texts;
}

/// Streams `text` under `options` and checks the result is bit-identical
/// to the SERIAL materialized reference (rows, order, var names, counts).
void CheckStreamMatchesSerialReference(AmberEngine& engine,
                                       const std::string& text,
                                       const ExecOptions& options) {
  SCOPED_TRACE(text);
  ExecOptions serial;  // num_threads = 1: THE reference semantics
  serial.max_rows = options.max_rows;
  auto ref = engine.MaterializeSparql(text, serial);
  ASSERT_TRUE(ref.ok()) << ref.status();

  CollectingRowSink sink;
  auto streamed = engine.StreamSparql(text, options, &sink);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->var_names, ref->var_names);
  EXPECT_EQ(sink.rows(), ref->rows);
  EXPECT_EQ(streamed->rows, ref->rows.size());
  EXPECT_EQ(streamed->stats.rows, ref->rows.size());
  EXPECT_FALSE(streamed->sink_stopped);
  EXPECT_EQ(streamed->stats.truncated, ref->stats.truncated);
}

class AmberEngineStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new std::vector<Triple>(testutil::RandomDataset(61, 18, 110, 3));
    engine_ = new AmberEngine(MustBuild(*data_));
    texts_ = new std::vector<std::string>(QueryTexts(*data_));
  }
  static void TearDownTestSuite() {
    delete texts_;
    delete engine_;
    delete data_;
    texts_ = nullptr;
    engine_ = nullptr;
    data_ = nullptr;
  }

  static std::vector<Triple>* data_;
  static AmberEngine* engine_;
  static std::vector<std::string>* texts_;
};

std::vector<Triple>* AmberEngineStreamTest::data_ = nullptr;
AmberEngine* AmberEngineStreamTest::engine_ = nullptr;
std::vector<std::string>* AmberEngineStreamTest::texts_ = nullptr;

TEST_F(AmberEngineStreamTest, SerialStreamMatchesMaterialize) {
  for (const std::string& text : *texts_) {
    CheckStreamMatchesSerialReference(*engine_, text, ExecOptions{});
  }
}

TEST_F(AmberEngineStreamTest, ParallelStreamMatchesSerialMaterialize) {
  ExecOptions options;
  options.num_threads = 4;
  for (const std::string& text : *texts_) {
    CheckStreamMatchesSerialReference(*engine_, text, options);
  }
}

TEST_F(AmberEngineStreamTest, TinyChunkBufferStillDeterministic) {
  // buffer_rows = 1 forces maximal backpressure: every non-head producer
  // blocks after one row. Order and content must not change.
  ExecOptions options;
  options.num_threads = 4;
  options.stream_chunk_buffer_rows = 1;
  for (const std::string& text : *texts_) {
    CheckStreamMatchesSerialReference(*engine_, text, options);
  }
}

TEST_F(AmberEngineStreamTest, MaxRowsCapsStream) {
  ExecOptions options;
  options.max_rows = 5;
  for (const std::string& text : *texts_) {
    CheckStreamMatchesSerialReference(*engine_, text, options);
  }
  ExecOptions parallel = options;
  parallel.num_threads = 3;
  for (const std::string& text : *texts_) {
    CheckStreamMatchesSerialReference(*engine_, text, parallel);
  }
}

TEST_F(AmberEngineStreamTest, SinkStopDeliversExactPrefix) {
  for (int threads : {1, 4}) {
    ExecOptions options;
    options.num_threads = threads;
    for (const std::string& text : *texts_) {
      SCOPED_TRACE(text + " threads=" + std::to_string(threads));
      auto ref = engine_->MaterializeSparql(text, ExecOptions{});
      ASSERT_TRUE(ref.ok()) << ref.status();
      if (ref->rows.size() < 2) continue;
      const uint64_t stop_after = ref->rows.size() / 2;
      CollectingRowSink sink(stop_after);
      auto streamed = engine_->StreamSparql(text, options, &sink);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      EXPECT_TRUE(streamed->sink_stopped);
      EXPECT_EQ(streamed->rows, stop_after);
      ASSERT_EQ(sink.rows().size(), stop_after);
      for (size_t i = 0; i < stop_after; ++i) {
        EXPECT_EQ(sink.rows()[i], ref->rows[i]) << "row " << i;
      }
    }
  }
}

TEST_F(AmberEngineStreamTest, BaseEngineMaterializeReplay) {
  // The QueryEngine default (materialize, then replay through the sink)
  // gives every baseline engine the same streaming surface.
  auto store = TripleStoreEngine::Build(*data_);
  ASSERT_TRUE(store.ok()) << store.status();
  for (const std::string& text : *texts_) {
    SCOPED_TRACE(text);
    auto ref = store->MaterializeSparql(text, ExecOptions{});
    ASSERT_TRUE(ref.ok()) << ref.status();
    CollectingRowSink sink;
    auto streamed = store->StreamSparql(text, ExecOptions{}, &sink);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(sink.rows(), ref->rows);
    EXPECT_EQ(streamed->rows, ref->rows.size());
    // Prefix property holds on the replay path too.
    if (ref->rows.size() >= 2) {
      CollectingRowSink prefix(1);
      auto stopped = store->StreamSparql(text, ExecOptions{}, &prefix);
      ASSERT_TRUE(stopped.ok()) << stopped.status();
      EXPECT_TRUE(stopped->sink_stopped);
      ASSERT_EQ(prefix.rows().size(), 1u);
      EXPECT_EQ(prefix.rows()[0], ref->rows[0]);
    }
  }
}

}  // namespace
}  // namespace amber
