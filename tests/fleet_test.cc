// FleetSimulator: deterministic sharding.  The fleet result must be a pure
// function of the FleetSpec — bit-identical across thread counts — and the
// per-array variation (seeds, rates, phases) must be deterministic and
// actually varied.
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/fleet.h"
#include "src/trace/synthetic.h"

namespace hib {
namespace {

// Small fleet that still exercises real policy machinery: a few hours of a
// low-rate stream over modest arrays keeps the test under a few seconds.
FleetSpec SmallSpec() {
  FleetSpec spec;
  spec.num_arrays = 6;
  spec.base_array.num_disks = 8;
  spec.base_array.group_width = 4;
  spec.base_array.cache_lines = 256;
  spec.scheme.scheme = Scheme::kHibernator;
  spec.scheme.goal_ms = Ms(25.0);
  spec.scheme.epoch_ms = Hours(1.0);
  spec.workload = FleetSpec::Workload::kOltp;
  spec.peak_iops = 40.0;
  spec.trough_iops = 10.0;
  spec.duration_ms = Hours(3.0);
  spec.rate_spread = 0.5;
  spec.phase_spread_ms = Hours(24.0);
  spec.seed = 1234;
  return spec;
}

TEST(FleetTest, SpecsAreDeterministicAndVaried) {
  FleetSimulator a(SmallSpec());
  FleetSimulator b(SmallSpec());
  ASSERT_EQ(a.specs().size(), 6u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].name, b.specs()[i].name);
    // Same FleetSpec -> identical per-array seeds...
    EXPECT_EQ(a.specs()[i].array.seed, b.specs()[i].array.seed);
    // ...and every array gets its own disk RNG stream.
    seeds.insert(a.specs()[i].array.seed);
    // Shards pre-size their event queues (satellite: no mid-run growth).
    EXPECT_GE(a.specs()[i].options.event_capacity_hint, 4096u);
  }
  EXPECT_EQ(seeds.size(), a.specs().size());
}

TEST(FleetTest, BitIdenticalAcrossThreadCounts) {
  FleetSimulator fleet(SmallSpec());
  FleetResult serial = fleet.Run(/*max_threads=*/1);
  FleetResult parallel = fleet.Run(/*max_threads=*/4);

  ASSERT_EQ(serial.per_array.size(), parallel.per_array.size());
  for (std::size_t i = 0; i < serial.per_array.size(); ++i) {
    const ExperimentResult& s = serial.per_array[i];
    const ExperimentResult& p = parallel.per_array[i];
    // Bit-identical, not approximately equal: every shard is a sealed
    // deterministic universe and the merge is in spec order.
    EXPECT_EQ(s.energy_total.value(), p.energy_total.value()) << "array " << i;
    EXPECT_EQ(s.mean_response_ms.value(), p.mean_response_ms.value()) << "array " << i;
    EXPECT_EQ(s.events, p.events) << "array " << i;
    EXPECT_EQ(s.requests, p.requests) << "array " << i;
  }
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.energy_total.value(), parallel.energy_total.value());
  EXPECT_EQ(serial.mean_response_ms.value(), parallel.mean_response_ms.value());
}

TEST(FleetTest, AggregatesSumShards) {
  FleetSpec spec = SmallSpec();
  spec.num_arrays = 3;
  FleetSimulator fleet(spec);
  FleetResult r = fleet.Run(2);

  EXPECT_EQ(r.arrays, 3);
  EXPECT_EQ(r.disks, 3 * 8);
  std::uint64_t events = 0;
  std::int64_t requests = 0;
  double energy = 0.0;
  for (const ExperimentResult& shard : r.per_array) {
    events += shard.events;
    requests += shard.requests;
    energy += shard.energy_total.value();
    EXPECT_GT(shard.requests, 0) << "every shard should see traffic";
  }
  EXPECT_EQ(r.events, events);
  EXPECT_EQ(r.requests, requests);
  EXPECT_DOUBLE_EQ(r.energy_total.value(), energy);
  EXPECT_GT(r.mean_response_ms.value(), 0.0);
}

TEST(FleetTest, RateSpreadAndPhaseVaryTheShards) {
  // With rate spread and phase stagger, shards must not be clones: their
  // request counts should differ (different rates, different valleys).
  FleetSpec spec = SmallSpec();
  spec.duration_ms = Hours(2.0);
  FleetSimulator fleet(spec);
  FleetResult r = fleet.Run(0);
  std::set<std::int64_t> request_counts;
  for (const ExperimentResult& shard : r.per_array) {
    request_counts.insert(shard.requests);
  }
  EXPECT_GT(request_counts.size(), 1u);

  // A homogeneous in-phase fleet, by contrast, produces identical shards
  // except for their distinct seeds.
  FleetSpec flat = SmallSpec();
  flat.duration_ms = Hours(2.0);
  flat.rate_spread = 0.0;
  flat.phase_spread_ms = Ms(0.0);
  FleetResult rf = FleetSimulator(flat).Run(0);
  for (const ExperimentResult& shard : rf.per_array) {
    EXPECT_GT(shard.requests, 0);
  }
}

// Builds every shard's workload and checks that all of them hold the fleet's
// one Zipf table, and that each yields what a standalone generator built from
// the same params, with its own table, yields.
template <typename Generator>
void ExpectShardsShareOneTable(FleetSpec spec) {
  spec.duration_ms = Hours(24.0);  // room for every shard's first 1e5 records
  FleetSimulator fleet(spec);
  const ZipfTable* fleet_table = nullptr;
  // Every shard's workload stays alive, so a table built per shard could not
  // reuse a freed one's address.
  std::vector<std::unique_ptr<WorkloadSource>> shards;
  for (const ExperimentSpec& es : fleet.specs()) {
    shards.push_back(es.make_workload(es.array));
    auto& shard = dynamic_cast<Generator&>(*shards.back());
    ASSERT_NE(shard.zipf_table(), nullptr);
    if (fleet_table == nullptr) {
      fleet_table = shard.zipf_table();
    }
    EXPECT_EQ(shard.zipf_table(), fleet_table) << es.name << " holds its own table";

    Generator standalone(shard.params());
    EXPECT_NE(standalone.zipf_table(), fleet_table);
    TraceRecord a;
    TraceRecord b;
    for (int i = 0; i < 100000; ++i) {
      bool more = shard.Next(&a);
      ASSERT_EQ(more, standalone.Next(&b)) << es.name << " record " << i;
      ASSERT_TRUE(more) << es.name << " ended after " << i << " records";
      ASSERT_EQ(a.time.value(), b.time.value()) << es.name << " record " << i;
      ASSERT_EQ(a.lba, b.lba) << es.name << " record " << i;
      ASSERT_EQ(a.count, b.count) << es.name << " record " << i;
      ASSERT_EQ(a.is_write, b.is_write) << es.name << " record " << i;
      ASSERT_EQ(a.stream, b.stream) << es.name << " record " << i;
    }
  }
}

TEST(FleetTest, OltpShardsShareOneTableAndMatchStandaloneGenerators) {
  ExpectShardsShareOneTable<OltpWorkload>(SmallSpec());
}

TEST(FleetTest, CelloShardsShareOneTableAndMatchStandaloneGenerators) {
  FleetSpec spec = SmallSpec();
  spec.workload = FleetSpec::Workload::kCello;
  ExpectShardsShareOneTable<CelloWorkload>(spec);
}

}  // namespace
}  // namespace hib
