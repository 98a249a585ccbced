// Cluster topology: the Delta layout, PCI attribution, flat indexing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string_view>

#include "cluster/topology.h"

namespace cl = gpures::cluster;

TEST(ClusterSpec, DeltaLayout) {
  const auto spec = cl::ClusterSpec::delta_a100();
  EXPECT_EQ(spec.node_count(), 106);
  EXPECT_EQ(spec.total_gpus(), 100 * 4 + 6 * 8);  // 448
  int four = 0;
  int eight = 0;
  for (const auto& n : spec.nodes) {
    if (n.gpu_count == 4) ++four;
    if (n.gpu_count == 8) ++eight;
  }
  EXPECT_EQ(four, 100);
  EXPECT_EQ(eight, 6);
}

TEST(ClusterSpec, NodeNamesUnique) {
  const auto spec = cl::ClusterSpec::delta_a100();
  std::set<std::string> names;
  for (const auto& n : spec.nodes) names.insert(n.name);
  EXPECT_EQ(names.size(), spec.nodes.size());
  EXPECT_EQ(spec.nodes[0].name, "gpua001");
  EXPECT_EQ(spec.nodes[105].name, "gpub006");
}

TEST(Topology, NodeIndexLookup) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  EXPECT_EQ(topo.node_index("gpua001"), 0);
  EXPECT_EQ(topo.node_index("gpua100"), 99);
  EXPECT_EQ(topo.node_index("gpub001"), 100);
  EXPECT_FALSE(topo.node_index("nosuchhost").has_value());
}

TEST(Topology, PciMappingInjectivePerNode) {
  cl::Topology topo(cl::ClusterSpec::small(2, 1));
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    std::set<std::string> pcis;
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      pcis.insert(topo.pci_bus({n, s}));
    }
    EXPECT_EQ(pcis.size(), static_cast<std::size_t>(topo.gpus_on_node(n)));
  }
}

TEST(Topology, PciRoundTrip) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  for (std::int32_t n : {0, 50, 100, 105}) {
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      const auto pci = topo.pci_bus({n, s});
      EXPECT_EQ(topo.slot_for_pci(n, pci), s);
    }
  }
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:FF:00").has_value());
  EXPECT_FALSE(topo.slot_for_pci(-1, "0000:07:00").has_value());
}

TEST(Topology, PciFormat) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  EXPECT_EQ(topo.pci_bus({0, 0}), "0000:07:00");
  EXPECT_EQ(topo.pci_bus({0, 1}), "0000:27:00");
  EXPECT_THROW(topo.pci_bus({0, 4}), std::out_of_range);  // 4-way node
  EXPECT_NO_THROW(topo.pci_bus({100, 7}));                // 8-way node
}

TEST(Topology, FlatIndexBijective) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  std::set<std::int32_t> seen;
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      const auto flat = topo.flat_index({n, s});
      ASSERT_GE(flat, 0);
      ASSERT_LT(flat, topo.total_gpus());
      seen.insert(flat);
      const auto back = topo.from_flat(flat);
      EXPECT_EQ(back.node, n);
      EXPECT_EQ(back.slot, s);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(topo.total_gpus()));
  EXPECT_THROW(topo.from_flat(-1), std::out_of_range);
  EXPECT_THROW(topo.from_flat(topo.total_gpus()), std::out_of_range);
  EXPECT_THROW(topo.flat_index({0, 9}), std::out_of_range);
}

TEST(Topology, NvlinkPeersAllToAll) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  const auto peers4 = topo.nvlink_peers(0, 1);
  EXPECT_EQ(peers4, (std::vector<std::int32_t>{0, 2, 3}));
  const auto peers8 = topo.nvlink_peers(100, 0);
  EXPECT_EQ(peers8.size(), 7u);
}

TEST(Topology, BadSpecRejected) {
  cl::ClusterSpec bad;
  bad.nodes.push_back({"x", 9});
  EXPECT_THROW(cl::Topology{bad}, std::invalid_argument);
  cl::ClusterSpec zero;
  zero.nodes.push_back({"x", 0});
  EXPECT_THROW(cl::Topology{zero}, std::invalid_argument);
}

// ---- Lookup contract: hashed host directory and arithmetic PCI parse ----

TEST(TopologyLookup, EveryNodeResolvesToItsIndex) {
  for (const auto& spec :
       {cl::ClusterSpec::delta_a100(), cl::ClusterSpec::scaled(1800, 200)}) {
    const cl::Topology topo(spec);
    for (std::int32_t n = 0; n < topo.node_count(); ++n) {
      ASSERT_EQ(topo.node_index(topo.node(n).name), n) << topo.node(n).name;
    }
  }
}

TEST(TopologyLookup, NearMissesAreUnknown) {
  const cl::Topology topo(cl::ClusterSpec::delta_a100());
  for (const std::string_view miss :
       {"", "gpua01", "gpua0011", "GPUA001", "gpua001 ", " gpua001",
        "gpua101", "gpub007"}) {
    EXPECT_FALSE(topo.node_index(miss).has_value()) << '"' << miss << '"';
  }
}

TEST(TopologyLookup, DuplicateNameResolvesToFirstIndex) {
  cl::ClusterSpec spec;
  spec.nodes.push_back({"alpha", 4});
  spec.nodes.push_back({"beta", 8});
  spec.nodes.push_back({"alpha", 8});
  const cl::Topology topo(spec);
  EXPECT_EQ(topo.node_index("alpha"), 0);
  EXPECT_EQ(topo.node_index("beta"), 1);
}

TEST(TopologyLookup, CopiesAndMovesOutliveTheirSource) {
  auto source = std::make_unique<cl::Topology>(cl::ClusterSpec::delta_a100());
  const cl::Topology copied(*source);
  auto moved_from = std::make_unique<cl::Topology>(*source);
  const cl::Topology moved(std::move(*moved_from));
  source.reset();
  moved_from.reset();
  for (const cl::Topology* topo : {&copied, &moved}) {
    EXPECT_EQ(topo->node_index("gpua001"), 0);
    EXPECT_EQ(topo->node_index("gpua042"), 41);
    EXPECT_EQ(topo->node_index("gpub006"), 105);
    EXPECT_FALSE(topo->node_index("gpub007").has_value());
  }
}

TEST(TopologyLookup, PciRoundTripsEverySlot) {
  const cl::Topology topo(cl::ClusterSpec::delta_a100());
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      ASSERT_EQ(topo.slot_for_pci(n, topo.pci_bus({n, s})), s);
    }
  }
}

TEST(TopologyLookup, PciRejectsWhatPciBusNeverRenders) {
  const cl::Topology topo(cl::ClusterSpec::delta_a100());
  const std::int32_t four_way = 0;
  const std::int32_t eight_way = 100;
  ASSERT_EQ(topo.slot_for_pci(eight_way, "0000:A7:00"), 5);
  ASSERT_EQ(topo.slot_for_pci(eight_way, "0000:87:00"), 4);
  // Lower-case hex: pci_bus renders "%02X", so this is an unknown bus.
  EXPECT_FALSE(topo.slot_for_pci(eight_way, "0000:a7:00").has_value());
  // A bus that exists only on 8-way boards.
  EXPECT_FALSE(topo.slot_for_pci(four_way, "0000:87:00").has_value());
  EXPECT_FALSE(topo.slot_for_pci(four_way, "0000:27:00.0").has_value());
  EXPECT_FALSE(topo.slot_for_pci(four_way, "00000:27:00").has_value());
  for (const std::string_view bad :
       {"", "0000:27:0", "0000:27:01", "0001:27:00", "0000-27:00",
        "0000:2G:00", "0000:28:00", "0000:27:00 "}) {
    EXPECT_FALSE(topo.slot_for_pci(four_way, bad).has_value()) << bad;
  }
  EXPECT_FALSE(topo.slot_for_pci(topo.node_count(), "0000:07:00").has_value());
}
