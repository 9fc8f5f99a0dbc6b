// Tests for the online Iustitia engine: the Fig. 1 pipeline mechanics.
#include "core/engine.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "datagen/corpus.h"

namespace iustitia::core {
namespace {

using datagen::FileClass;
using net::FlowKey;
using net::Packet;
using net::Protocol;

FlowNatureModel small_model() {
  datagen::CorpusOptions corpus_options;
  corpus_options.files_per_class = 15;
  corpus_options.min_size = 2048;
  corpus_options.max_size = 4096;
  corpus_options.seed = 41;
  const auto corpus = datagen::build_corpus(corpus_options);
  TrainerOptions options;
  options.backend = Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = TrainingMethod::kFirstBytes;
  options.buffer_size = 64;
  return train_model(corpus, options);
}

EngineOptions small_engine_options() {
  EngineOptions options;
  options.buffer_size = 64;
  options.header_threshold = 0;
  options.buffer_timeout_seconds = 5.0;
  return options;
}

FlowKey key_of(int n) {
  return FlowKey{.src_ip = static_cast<std::uint32_t>(n),
                 .dst_ip = 0x01020304,
                 .src_port = 40000,
                 .dst_port = 80,
                 .protocol = Protocol::kTcp};
}

Packet data_packet(const FlowKey& key, double ts,
                   std::vector<std::uint8_t> payload) {
  Packet p;
  p.key = key;
  p.timestamp = ts;
  p.flags.ack = true;
  p.payload = std::move(payload);
  return p;
}

std::vector<std::uint8_t> text_payload(std::size_t n) {
  std::vector<std::uint8_t> out;
  const std::string phrase = "the quick brown fox jumps over the lazy dog ";
  while (out.size() < n) {
    out.insert(out.end(), phrase.begin(), phrase.end());
  }
  out.resize(n);
  return out;
}

TEST(Engine, BuffersUntilFullThenClassifies) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(1);
  EXPECT_EQ(engine.on_packet(data_packet(key, 0.0, text_payload(30))),
            PacketAction::kBuffered);
  EXPECT_EQ(engine.pending_flows(), 1u);
  EXPECT_EQ(engine.on_packet(data_packet(key, 0.1, text_payload(40))),
            PacketAction::kClassifiedNow);
  EXPECT_EQ(engine.pending_flows(), 0u);
  ASSERT_TRUE(engine.label_of(key).has_value());
  EXPECT_EQ(engine.stats().flows_classified, 1u);

  // Subsequent packets are forwarded from the CDB.
  EXPECT_EQ(engine.on_packet(data_packet(key, 0.2, text_payload(100))),
            PacketAction::kForwarded);
}

TEST(Engine, ClassifiesTextFlowAsText) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(2);
  engine.on_packet(data_packet(key, 0.0, text_payload(200)));
  EXPECT_EQ(engine.label_of(key), FileClass::kText);
}

TEST(Engine, SinglePacketLargerThanBufferClassifiesImmediately) {
  Iustitia engine(small_model(), small_engine_options());
  EXPECT_EQ(engine.on_packet(data_packet(key_of(3), 0.0, text_payload(500))),
            PacketAction::kClassifiedNow);
  ASSERT_EQ(engine.delays().size(), 1u);
  EXPECT_EQ(engine.delays()[0].packets_to_fill, 1u);
  EXPECT_DOUBLE_EQ(engine.delays()[0].tau_b, 0.0);
  EXPECT_EQ(engine.delays()[0].buffered_bytes, 64u);
}

TEST(Engine, DelayRecordTracksBufferFillTime) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(4);
  engine.on_packet(data_packet(key, 1.0, text_payload(30)));
  engine.on_packet(data_packet(key, 1.5, text_payload(20)));
  engine.on_packet(data_packet(key, 2.25, text_payload(30)));
  ASSERT_EQ(engine.delays().size(), 1u);
  const FlowDelayRecord& record = engine.delays()[0];
  EXPECT_EQ(record.packets_to_fill, 3u);
  EXPECT_DOUBLE_EQ(record.tau_b, 1.25);
  EXPECT_DOUBLE_EQ(record.classified_at, 2.25);
  EXPECT_GE(record.hash_micros, 0.0);
  EXPECT_GE(record.extract_micros, 0.0);
}

TEST(Engine, PureControlPacketsOnUnknownFlowAreIgnored) {
  Iustitia engine(small_model(), small_engine_options());
  Packet syn;
  syn.key = key_of(5);
  syn.flags.syn = true;
  EXPECT_EQ(engine.on_packet(syn), PacketAction::kIgnored);
}

TEST(Engine, FinTriggersEarlyClassificationOfPartialBuffer) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(6);
  engine.on_packet(data_packet(key, 0.0, text_payload(30)));  // below b=64
  Packet fin = data_packet(key, 0.5, {});
  fin.flags.fin = true;
  EXPECT_EQ(engine.on_packet(fin), PacketAction::kClassifiedNow);
  EXPECT_EQ(engine.stats().flows_timed_out, 1u);
  ASSERT_EQ(engine.delays().size(), 1u);
  EXPECT_EQ(engine.delays()[0].buffered_bytes, 30u);
}

TEST(Engine, FinOnClassifiedFlowRemovesCdbEntry) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(7);
  engine.on_packet(data_packet(key, 0.0, text_payload(100)));
  ASSERT_TRUE(engine.label_of(key).has_value());
  Packet fin = data_packet(key, 0.1, {});
  fin.flags.fin = true;
  EXPECT_EQ(engine.on_packet(fin), PacketAction::kForwarded);
  EXPECT_EQ(engine.label_of(key), std::nullopt);
  EXPECT_EQ(engine.cdb().stats().fin_rst_removals, 1u);
}

TEST(Engine, FlushIdleClassifiesQuietFlows) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(8);
  engine.on_packet(data_packet(key, 0.0, text_payload(10)));
  EXPECT_EQ(engine.flush_idle(1.0), 0u);  // not idle long enough
  EXPECT_EQ(engine.flush_idle(10.0), 1u);
  EXPECT_TRUE(engine.label_of(key).has_value());
  EXPECT_EQ(engine.pending_flows(), 0u);
}

TEST(Engine, FlushAllDrainsEverything) {
  Iustitia engine(small_model(), small_engine_options());
  engine.on_packet(data_packet(key_of(9), 0.0, text_payload(10)));
  engine.on_packet(data_packet(key_of(10), 0.0, text_payload(20)));
  EXPECT_EQ(engine.flush_all(), 2u);
  EXPECT_EQ(engine.pending_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_classified, 2u);
}

TEST(Engine, HeaderThresholdSkipsLeadingBytes) {
  // Flow = 128 constant bytes (fake header) + random payload.  With T=128
  // the classifier must see only the random part.
  EngineOptions options = small_engine_options();
  options.header_threshold = 128;
  options.strip_known_headers = false;
  Iustitia engine(small_model(), options);

  util::Rng rng(1);
  std::vector<std::uint8_t> padded(128, 'A');
  std::vector<std::uint8_t> random_tail(64);
  rng.fill_bytes(random_tail);
  padded.insert(padded.end(), random_tail.begin(), random_tail.end());

  const FlowKey key = key_of(11);
  EXPECT_EQ(engine.on_packet(data_packet(key, 0.0, padded)),
            PacketAction::kClassifiedNow);
  ASSERT_EQ(engine.delays().size(), 1u);
  // 64 random bytes at b=64: the window is the random tail, which a
  // text/binary/encrypted model reads as high-entropy content.
  const FileClass label = engine.delays()[0].label;
  EXPECT_NE(label, FileClass::kText);
}

TEST(Engine, KnownHttpHeaderIsStrippedBeforeClassification) {
  EngineOptions options = small_engine_options();
  options.strip_known_headers = true;
  Iustitia engine(small_model(), options);

  std::string header =
      "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
      "Content-Length: 4096\r\n\r\n";
  std::vector<std::uint8_t> flow(header.begin(), header.end());
  util::Rng rng(2);
  std::vector<std::uint8_t> body(256);
  rng.fill_bytes(body);
  flow.insert(flow.end(), body.begin(), body.end());

  const FlowKey key = key_of(12);
  engine.on_packet(data_packet(key, 0.0, flow));
  ASSERT_EQ(engine.delays().size(), 1u);
  // Without stripping, the textual header would dominate the 64-byte
  // window and misclassify this encrypted-looking body as text.
  EXPECT_NE(engine.delays()[0].label, FileClass::kText);
}

TEST(Engine, QueueCountsAccumulatePerClass) {
  Iustitia engine(small_model(), small_engine_options());
  const FlowKey key = key_of(13);
  engine.on_packet(data_packet(key, 0.0, text_payload(100)));
  engine.on_packet(data_packet(key, 0.1, text_payload(50)));
  engine.on_packet(data_packet(key, 0.2, text_payload(50)));
  const auto& queues = engine.stats().queue_packets;
  EXPECT_EQ(queues[static_cast<std::size_t>(FileClass::kText)], 3u);
}

TEST(Engine, WorksWithEstimatedEntropyModel) {
  // Engine + (delta,epsilon)-estimation end to end (the paper's b=1024
  // deployment mode).
  datagen::CorpusOptions corpus_options;
  corpus_options.files_per_class = 15;
  corpus_options.min_size = 2048;
  corpus_options.max_size = 4096;
  corpus_options.seed = 43;
  const auto corpus = datagen::build_corpus(corpus_options);
  TrainerOptions trainer;
  trainer.backend = Backend::kCart;
  trainer.widths = entropy::cart_preferred_widths();
  trainer.method = TrainingMethod::kFirstBytes;
  trainer.buffer_size = 1024;
  trainer.use_estimation = true;
  trainer.estimator = {.epsilon = 0.25, .delta = 0.5};
  FlowNatureModel model = train_model(corpus, trainer);
  ASSERT_TRUE(model.uses_estimation());

  EngineOptions options;
  options.buffer_size = 1024;
  Iustitia engine(std::move(model), options);
  // One large text flow.
  const FlowKey key = key_of(50);
  EXPECT_EQ(engine.on_packet(data_packet(key, 0.0, text_payload(1400))),
            PacketAction::kClassifiedNow);
  EXPECT_EQ(engine.label_of(key), FileClass::kText);
  ASSERT_EQ(engine.delays().size(), 1u);
  EXPECT_EQ(engine.delays()[0].buffered_bytes, 1024u);
}

TEST(Engine, RandomSkipMovesClassificationWindow) {
  // With random_skip_max set, flows need (skip + b) bytes before they
  // classify, and the window excludes a prefix an attacker could control.
  EngineOptions options = small_engine_options();
  options.random_skip_max = 1024;
  options.strip_known_headers = false;
  options.seed = 5;
  Iustitia engine(small_model(), options);

  // Flow: 256 bytes of uniform-random padding, then text.  With skips in
  // [0,1024], ~3/4 of flows classify on windows fully past the padding.
  util::Rng rng(9);
  std::size_t text_labels = 0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    std::vector<std::uint8_t> payload(256);
    rng.fill_bytes(payload);
    const auto text = text_payload(1600);
    payload.insert(payload.end(), text.begin(), text.end());
    const FlowKey key = key_of(100 + i);
    engine.on_packet(data_packet(key, 0.01 * i, payload));
    ASSERT_TRUE(engine.label_of(key).has_value());
    text_labels += (engine.label_of(key) == FileClass::kText);
  }
  // Without the defense every flow would see pure padding (encrypted-ish);
  // with it a solid fraction must land past the padding and read text.
  EXPECT_GT(text_labels, static_cast<std::size_t>(trials / 3));
}

TEST(Engine, ReclassificationDefenseRelabelsFlow) {
  EngineOptions options = small_engine_options();
  options.strip_known_headers = false;
  options.cdb.reclassify_after_seconds = 1.0;
  options.cdb.inactivity_coefficient = 1000.0;
  options.cdb.default_lambda = 1000.0;
  Iustitia engine(small_model(), options);

  // First window: random bytes (classified non-text); later traffic: text.
  util::Rng rng(10);
  std::vector<std::uint8_t> padding(128);
  rng.fill_bytes(padding);
  const FlowKey key = key_of(200);
  engine.on_packet(data_packet(key, 0.0, padding));
  ASSERT_TRUE(engine.label_of(key).has_value());
  const FileClass first = *engine.label_of(key);
  EXPECT_NE(first, FileClass::kText);

  // Keep the flow alive past the reclassification deadline.
  engine.on_packet(data_packet(key, 0.5, text_payload(100)));
  engine.flush_idle(2.0);  // purge opportunity: record is now stale
  EXPECT_EQ(engine.label_of(key), std::nullopt);  // deleted, to be redone

  // Next packets re-buffer genuine text and the flow is relabeled.
  engine.on_packet(data_packet(key, 2.1, text_payload(100)));
  EXPECT_EQ(engine.label_of(key), FileClass::kText);
  EXPECT_GE(engine.cdb().stats().reclassification_removals, 1u);
}

TEST(Engine, FlushIdleVisitsOnlyFlowsIdlePastTheTimeout) {
  // A packet moves its flow to the back of the idle order: after flow 16
  // speaks again at t=2, only flow 17 has been quiet for 5 s at t=6.5.
  Iustitia engine(small_model(), small_engine_options());
  engine.on_packet(data_packet(key_of(16), 0.0, text_payload(10)));
  engine.on_packet(data_packet(key_of(17), 1.0, text_payload(10)));
  engine.on_packet(data_packet(key_of(16), 2.0, text_payload(10)));
  EXPECT_EQ(engine.flush_idle(6.5), 1u);
  EXPECT_TRUE(engine.label_of(key_of(17)).has_value());
  EXPECT_FALSE(engine.label_of(key_of(16)).has_value());
  EXPECT_EQ(engine.pending_flows(), 1u);
  EXPECT_EQ(engine.flush_idle(7.5), 1u);
  EXPECT_EQ(engine.pending_flows(), 0u);
  ASSERT_EQ(engine.delays().size(), 2u);
  EXPECT_EQ(engine.delays()[1].buffered_bytes, 20u);
}

TEST(Engine, OutOfOrderStampsDoNotStallIdleFlushing) {
  // Flow 30's stamp jumps ahead, then the capture's clock steps back.
  // The flows behind the out-of-order stamp must still idle out on time.
  Iustitia engine(small_model(), small_engine_options());
  engine.on_packet(data_packet(key_of(30), 100.0, text_payload(10)));
  engine.on_packet(data_packet(key_of(31), 1.0, text_payload(10)));
  Packet syn;
  syn.key = key_of(32);
  syn.timestamp = 2.0;
  syn.flags.syn = true;
  engine.on_packet(syn);
  engine.on_packet(data_packet(key_of(33), 3.0, text_payload(10)));
  EXPECT_EQ(engine.pending_flows(), 4u);

  EXPECT_EQ(engine.flush_idle(7.5), 1u);  // flow 31; SYN-only 32 released
  EXPECT_TRUE(engine.label_of(key_of(31)).has_value());
  EXPECT_EQ(engine.stats().flows_released, 1u);
  EXPECT_EQ(engine.flush_idle(8.5), 1u);  // flow 33
  EXPECT_TRUE(engine.label_of(key_of(33)).has_value());
  EXPECT_EQ(engine.pending_flows(), 1u);  // flow 30 is still not idle
  EXPECT_FALSE(engine.label_of(key_of(30)).has_value());

  // A packet at an in-order time puts flow 30 back in the sorted order.
  engine.on_packet(data_packet(key_of(30), 9.0, text_payload(10)));
  EXPECT_EQ(engine.flush_idle(13.5), 0u);
  EXPECT_EQ(engine.flush_idle(14.0), 1u);
  EXPECT_EQ(engine.pending_flows(), 0u);
  ASSERT_EQ(engine.delays().size(), 3u);
  EXPECT_EQ(engine.delays()[2].key, key_of(30));
  EXPECT_EQ(engine.delays()[2].buffered_bytes, 20u);
}

TEST(Engine, IdleFlowsWithoutPayloadAreReleased) {
  // SYN-only flows carry no payload and can never classify: they are
  // released when they idle out instead of staying pending forever.
  // Flows whose payload ends exactly at the header skip are kept (they
  // may still receive bytes) but leave the idle scan.
  EngineOptions options = small_engine_options();
  options.header_threshold = 100;
  options.strip_known_headers = false;
  Iustitia engine(small_model(), options);
  for (int i = 0; i < 3; ++i) {
    Packet syn;
    syn.key = key_of(20 + i);
    syn.timestamp = 0.1 * i;
    syn.flags.syn = true;
    EXPECT_EQ(engine.on_packet(syn), PacketAction::kIgnored);
  }
  engine.on_packet(data_packet(key_of(23), 0.5, text_payload(100)));
  engine.on_packet(data_packet(key_of(24), 0.5, text_payload(100)));
  EXPECT_EQ(engine.pending_flows(), 5u);

  EXPECT_EQ(engine.flush_idle(1.0), 0u);
  EXPECT_EQ(engine.stats().flows_released, 0u);
  EXPECT_EQ(engine.flush_idle(10.0), 0u);  // nothing was classifiable
  EXPECT_EQ(engine.stats().flows_released, 3u);
  EXPECT_EQ(engine.pending_flows(), 2u);
  EXPECT_EQ(engine.flush_idle(20.0), 0u);
  EXPECT_EQ(engine.stats().flows_classified, 0u);
  EXPECT_EQ(engine.cdb().size(), 0u);

  // A kept flow classifies once bytes pass its skip...
  EXPECT_EQ(engine.on_packet(data_packet(key_of(23), 21.0, text_payload(100))),
            PacketAction::kClassifiedNow);
  // ...and a released flow that speaks again starts over as a new flow.
  engine.on_packet(data_packet(key_of(20), 22.0, text_payload(200)));
  EXPECT_TRUE(engine.label_of(key_of(20)).has_value());
  EXPECT_EQ(engine.stats().flows_classified, 2u);

  // flush_all classifies the other kept flow from offset 0.
  EXPECT_EQ(engine.flush_all(), 1u);
  EXPECT_EQ(engine.pending_flows(), 0u);
  ASSERT_EQ(engine.delays().size(), 3u);
  EXPECT_EQ(engine.delays()[2].key, key_of(24));
  EXPECT_EQ(engine.delays()[2].buffered_bytes, 64u);
}

TEST(Engine, PendingBufferBytesReflectBufferedPayload) {
  Iustitia engine(small_model(), small_engine_options());
  EXPECT_EQ(engine.pending_buffer_bytes(), 0u);
  engine.on_packet(data_packet(key_of(14), 0.0, text_payload(30)));
  EXPECT_GE(engine.pending_buffer_bytes(), 30u);
  // Classifying hands the kilobytes the flow buffered back to the heap;
  // the pool entry it leaves for the next flow keeps none of them.
  EXPECT_EQ(engine.on_packet(data_packet(key_of(14), 0.1, text_payload(4000))),
            PacketAction::kClassifiedNow);
  EXPECT_EQ(engine.pending_buffer_bytes(), 0u);
}

}  // namespace
}  // namespace iustitia::core
