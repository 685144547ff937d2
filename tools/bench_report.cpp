// Runs the perf-gauge micro benchmarks — medium broadcast (spatial grid and
// the seed full-scan baseline), batched vs per-sender HELLO rounds,
// event-queue churn, MPR selection and link-set scans, routing recompute
// (full rebuild, identical-graph refresh and edge-addition churn), wire
// round-trip, the flat-slab trust store at >= 10k subjects, and the psim
// sharded-engine gauges (full-stack slabs, synthetic window throughput,
// serial-fraction counters), and the fault-subsystem checkpoint codec
// (save/restore throughput at 256 and 1024 nodes), plus the audit-event
// detection pipeline (in-memory consume and binary-log replay at 256 and
// 1024 peer streams, the kForwardAudit frame path, and the end-to-end
// grayhole detection round), the observability-layer gauges (disabled
// and enabled counter record, span record, registry snapshot) and the
// knowledge-graph build from converged agents' tables (memo hit and
// forced rebuild) — with repeated runs and median aggregates, and writes
// the results to the JSON file named by --out: one point of this repo's
// recorded perf trajectory (see docs/BENCHMARKING.md for the whole series
// and its comparability rules; tools/bench_diff.py prints median deltas
// between consecutive BENCH_N files).
//
//   bench_report --out BENCH_13.json
//
// Extra --benchmark_* flags are appended after the defaults, so adding
// --benchmark_min_time=0.01s --benchmark_repetitions=2 gives a quick CI
// smoke run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  std::string out;
  std::vector<std::string> extra;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      extra.push_back(arg);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: %s --out FILE [--benchmark_* flags]\n"
                 "writes the gauge report (Google Benchmark JSON) to FILE\n",
                 argv[0]);
    return 2;
  }

  std::vector<std::string> args = {
      argv[0],
      "--benchmark_out=" + out,
      "--benchmark_out_format=json",
      "--benchmark_repetitions=5",
      "--benchmark_report_aggregates_only=true",
      "--benchmark_filter=BM_MediumBroadcast|BM_EventQueueChurn|"
      "BM_MprSelection|BM_HelloSerializeParse|BM_BatchedRound|"
      "BM_PerSenderRound|BM_RoundWithDrain|BM_LinkSetScan|"
      "BM_RoutingRecompute|BM_SequentialSlab|BM_ShardedSlab|"
      "BM_SequentialWindows|BM_ShardedWindows|"
      "BM_TrustUpdateLarge|BM_TrustDecayAllLarge|"
      "BM_CheckpointSave|BM_CheckpointRestore|"
      "BM_DetectConsume|BM_AuditReplay|BM_AuditDecode|"
      "BM_ForwardAuditConsume|BM_GrayholeRound|"
      "BM_CounterInc|BM_SpanEnterExit|BM_SpanDisabled|BM_RegistrySnapshot|"
      "BM_KnowledgeGraphBuild|BM_HonestObservation|BM_HelloFanout",
  };
  args.insert(args.end(), extra.begin(), extra.end());

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());

  benchmark::Initialize(&argc2, argv2.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
