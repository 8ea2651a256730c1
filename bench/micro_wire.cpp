// Micro-benchmarks for the wire codec: encode and decode throughput of
// measurement frames at the dimensionalities the experiments use, the
// incremental decoder on a long multi-frame stream in socket-sized chunks,
// and the frame CRC on its own.
// Engineering hygiene, not a paper artifact.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "net/wire.hpp"

namespace {

using namespace resmon;

transport::MeasurementMessage make_message(std::size_t dim, Rng& rng) {
  transport::MeasurementMessage m;
  m.node = 17;
  m.step = 12345;
  for (std::size_t i = 0; i < dim; ++i) m.values.push_back(rng.uniform());
  return m;
}

void BM_WireEncodeMeasurement(benchmark::State& state) {
  Rng rng(1);
  const transport::MeasurementMessage m =
      make_message(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::wire::encode(m));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * m.wire_size()));
}
BENCHMARK(BM_WireEncodeMeasurement)->Arg(1)->Arg(2)->Arg(8)->Arg(64);

void BM_WireDecodeMeasurement(benchmark::State& state) {
  Rng rng(2);
  const transport::MeasurementMessage m =
      make_message(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<std::uint8_t> bytes = net::wire::encode(m);
  for (auto _ : state) {
    net::wire::FrameDecoder dec;
    dec.feed(bytes);
    benchmark::DoNotOptimize(dec.next());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_WireDecodeMeasurement)->Arg(1)->Arg(2)->Arg(8)->Arg(64);

// A full agent-uplink's worth of traffic through one incremental decoder,
// fed in read_some-sized chunks like the controller sees it.
void BM_WireDecodeStream(benchmark::State& state) {
  const std::size_t frames = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::uint8_t> stream;
  for (std::size_t t = 0; t < frames; ++t) {
    transport::MeasurementMessage m = make_message(2, rng);
    m.step = t;
    const std::vector<std::uint8_t> bytes = net::wire::encode(m);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  constexpr std::size_t kChunk = 4096;
  for (auto _ : state) {
    net::wire::FrameDecoder dec;
    std::size_t decoded = 0;
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - off);
      dec.feed({stream.data() + off, n});
      while (dec.next().has_value()) ++decoded;
    }
    if (decoded != frames) state.SkipWithError("frame loss in decoder");
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * frames));
}
BENCHMARK(BM_WireDecodeStream)->Arg(1000)->Arg(10000);

// CRC-32 over one payload of the given length: 32 bytes is a d = 2
// measurement payload, the frame the in-process link checksums twice per
// sender; the longer ones are shard-summary sized.
void BM_Crc32(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::uint8_t> bytes(len);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.index(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::wire::crc32(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32)->Arg(32)->Arg(1024)->Arg(65536);

/// Console output as usual, plus every iteration row captured for the
/// persistent BENCH_micro.json sink.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(resmon::bench::BenchJson* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::vector<std::pair<std::string, double>> fields = {
          {"ns_per_op", run.GetAdjustedRealTime()},
          {"iterations", static_cast<double>(run.iterations)}};
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        fields.emplace_back("bytes_per_second", bytes->second.value);
      }
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        fields.emplace_back("items_per_second", items->second.value);
      }
      sink_->add(run.benchmark_name(), fields);
    }
  }

 private:
  resmon::bench::BenchJson* sink_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): identical benchmark runs, but
// the results also persist into BENCH_micro.json (merged with the other
// micro harnesses' rows; --json PATH overrides the destination, and
// --json-run LABEL appends a history entry for this run).
int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  std::string json_run;
  for (int i = 1; i + 1 < argc;) {
    std::string* dest = nullptr;
    if (std::strcmp(argv[i], "--json") == 0) dest = &json_path;
    if (std::strcmp(argv[i], "--json-run") == 0) dest = &json_run;
    if (dest == nullptr) {
      ++i;
      continue;
    }
    *dest = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  benchmark::Initialize(&argc, argv);
  resmon::bench::BenchJson sink("resmon-micro", "micro_wire");
  CapturingReporter reporter(&sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  sink.write(json_path, json_run);
  return 0;
}
