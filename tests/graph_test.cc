#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/common/rng.h"
#include "xfraud/graph/graph_builder.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/graph/subgraph.h"

namespace xfraud::graph {
namespace {

TransactionRecord MakeRecord(const std::string& id, const std::string& buyer,
                             const std::string& email, const std::string& pmt,
                             const std::string& addr, int8_t label) {
  TransactionRecord r;
  r.txn_id = id;
  r.buyer_id = buyer;
  r.email = email;
  r.payment_token = pmt;
  r.shipping_address = addr;
  r.features = {1.0f, 2.0f};
  r.label = label;
  return r;
}

/// The two transactions of paper Figure 3: same buyer & email, different
/// payment token & address.
GraphBuilder Figure3Builder() {
  GraphBuilder b;
  EXPECT_TRUE(b.AddTransaction(MakeRecord("t1", "john", "john@gmail",
                                          "credit_card", "einstein_str_1",
                                          kLabelBenign))
                  .ok());
  EXPECT_TRUE(b.AddTransaction(MakeRecord("t2", "john", "john@gmail",
                                          "payment_slip", "hauptstr_1",
                                          kLabelFraud))
                  .ok());
  return b;
}

TEST(GraphBuilderTest, Figure3Construction) {
  HeteroGraph g = Figure3Builder().Build();
  // 2 txns + 1 buyer + 1 email + 2 pmts + 2 addrs = 8 nodes.
  EXPECT_EQ(g.num_nodes(), 8);
  // Each txn links 4 entities; every linkage is 2 directed edges.
  EXPECT_EQ(g.num_edges(), 16);
  auto counts = g.NodeTypeCounts();
  EXPECT_EQ(counts[static_cast<int>(NodeType::kTxn)], 2);
  EXPECT_EQ(counts[static_cast<int>(NodeType::kBuyer)], 1);
  EXPECT_EQ(counts[static_cast<int>(NodeType::kEmail)], 1);
  EXPECT_EQ(counts[static_cast<int>(NodeType::kPmt)], 2);
  EXPECT_EQ(counts[static_cast<int>(NodeType::kAddr)], 2);
}

TEST(GraphBuilderTest, SharedEntitiesAreDeduplicated) {
  HeteroGraph g = Figure3Builder().Build();
  // The shared buyer has degree 2 (one incoming edge per transaction).
  auto buyers = g.NodesOfType(NodeType::kBuyer);
  ASSERT_EQ(buyers.size(), 1u);
  EXPECT_EQ(g.InDegree(buyers[0]), 2);
  // Each distinct payment token has degree 1.
  for (int32_t pmt : g.NodesOfType(NodeType::kPmt)) {
    EXPECT_EQ(g.InDegree(pmt), 1);
  }
}

TEST(GraphBuilderTest, RejectsDuplicateTxnIds) {
  GraphBuilder b;
  ASSERT_TRUE(
      b.AddTransaction(MakeRecord("t1", "b", "e", "p", "a", 0)).ok());
  Status s = b.AddTransaction(MakeRecord("t1", "b2", "e2", "p2", "a2", 0));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(GraphBuilderTest, RejectsInconsistentFeatureDims) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddTransaction(MakeRecord("t1", "b", "e", "p", "a", 0)).ok());
  TransactionRecord bad = MakeRecord("t2", "b", "e", "p", "a", 0);
  bad.features = {1.0f, 2.0f, 3.0f};
  Status s = b.AddTransaction(bad);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, GuestCheckoutHasNoBuyerEdge) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddTransaction(MakeRecord("t1", "", "e", "p", "a", 1)).ok());
  HeteroGraph g = b.Build();
  EXPECT_EQ(g.NodesOfType(NodeType::kBuyer).size(), 0u);
  // txn + email + pmt + addr.
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 6);
}

TEST(GraphBuilderTest, SameStringDifferentTypesAreDistinctNodes) {
  GraphBuilder b;
  ASSERT_TRUE(
      b.AddTransaction(MakeRecord("t1", "x", "x", "x", "x", 0)).ok());
  HeteroGraph g = b.Build();
  // One node per entity type even though the key string is identical.
  EXPECT_EQ(g.num_nodes(), 5);
}

TEST(GraphBuilderTest, EdgeTypesMatchEntityTypes) {
  HeteroGraph g = Figure3Builder().Build();
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    for (int64_t e = g.InDegreeBegin(v); e < g.InDegreeEnd(v); ++e) {
      int32_t u = g.neighbors()[e];
      EdgeType et = g.edge_types()[e];
      if (g.node_type(v) == NodeType::kTxn) {
        // Incoming edge of a txn comes from an entity.
        EXPECT_EQ(et, EntityToTxnEdge(g.node_type(u)));
      } else {
        EXPECT_EQ(g.node_type(u), NodeType::kTxn);
        EXPECT_EQ(et, TxnToEntityEdge(g.node_type(v)));
      }
    }
  }
}

TEST(GraphBuilderTest, FeaturesOnlyOnTransactions) {
  HeteroGraph g = Figure3Builder().Build();
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.HasFeatures(v), g.node_type(v) == NodeType::kTxn);
  }
  auto txns = g.NodesOfType(NodeType::kTxn);
  EXPECT_EQ(g.Features(txns[0])[0], 1.0f);
  EXPECT_EQ(g.Features(txns[0])[1], 2.0f);
}

TEST(GraphTest, LabelsAndFraudRate) {
  HeteroGraph g = Figure3Builder().Build();
  auto labeled = g.LabeledTransactions();
  EXPECT_EQ(labeled.size(), 2u);
  EXPECT_DOUBLE_EQ(g.FraudRate(), 0.5);
}

TEST(GraphTest, OutOfRangeNeighbourThrows) {
  // The constructor's neighbour bounds check runs in every build type: a
  // corrupt CSR must fail here, not as an out-of-bounds read in a sampler.
  auto make = [](int32_t neighbour) {
    return HeteroGraph({NodeType::kTxn, NodeType::kBuyer}, {0, 1, 2},
                       {1, neighbour},
                       {EdgeType::kBuyerToTxn, EdgeType::kBuyerToTxn},
                       nn::Tensor(1, 2, 0.0f), {0, -1},
                       {kLabelBenign, kLabelUnknown});
  };
  EXPECT_NO_THROW(make(0));
  EXPECT_THROW(make(2), CheckError);
  EXPECT_THROW(make(-1), CheckError);
}

TEST(GraphTest, TxnNodeLookup) {
  GraphBuilder b = Figure3Builder();
  EXPECT_GE(b.TxnNode("t1"), 0);
  EXPECT_GE(b.TxnNode("t2"), 0);
  EXPECT_EQ(b.TxnNode("nope"), -1);
}

TEST(SubgraphTest, KHopGrowsByHops) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Rng rng(1);
  // Hop 1 from t1: its 4 entities + itself.
  Subgraph one = KHopSubgraph(g, txns[0], 1, -1, &rng);
  EXPECT_EQ(one.num_nodes(), 5);
  // Hop 2 additionally reaches t2 through the shared buyer/email.
  Subgraph two = KHopSubgraph(g, txns[0], 2, -1, &rng);
  EXPECT_EQ(two.num_nodes(), 6);
  // Hop 3 closes over t2's own pmt/addr: the full component.
  Subgraph three = KHopSubgraph(g, txns[0], 3, -1, &rng);
  EXPECT_EQ(three.num_nodes(), 8);
}

TEST(SubgraphTest, InducedEdgesAreComplete) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Rng rng(1);
  Subgraph full = KHopSubgraph(g, txns[0], 3, -1, &rng);
  // All 16 directed edges are induced once all nodes are present.
  EXPECT_EQ(full.num_edges(), 16);
  // Every edge references valid local nodes.
  for (int64_t e = 0; e < full.num_edges(); ++e) {
    EXPECT_GE(full.src[e], 0);
    EXPECT_LT(full.src[e], full.num_nodes());
    EXPECT_GE(full.dst[e], 0);
    EXPECT_LT(full.dst[e], full.num_nodes());
  }
}

TEST(SubgraphTest, FanoutCapsNeighbourExpansion) {
  // A star: one address shared by 10 transactions.
  GraphBuilder b;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.AddTransaction(MakeRecord("t" + std::to_string(i),
                                            "b" + std::to_string(i),
                                            "e" + std::to_string(i),
                                            "p" + std::to_string(i),
                                            "shared_addr", 0))
                    .ok());
  }
  HeteroGraph g = b.Build();
  auto addrs = g.NodesOfType(NodeType::kAddr);
  ASSERT_EQ(addrs.size(), 1u);
  Rng rng(7);
  Subgraph capped = KHopSubgraph(g, addrs[0], 1, 3, &rng);
  EXPECT_EQ(capped.num_nodes(), 4);  // addr + 3 sampled txns
}

TEST(SubgraphTest, CommunityCollectsComponent) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Subgraph community = Community(g, txns[0], 1000);
  EXPECT_EQ(community.num_nodes(), 8);
  EXPECT_EQ(community.seed_local, 0);
  EXPECT_EQ(community.nodes[community.seed_local], txns[0]);
}

TEST(SubgraphTest, CommunityRespectsCap) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Subgraph community = Community(g, txns[0], 3);
  EXPECT_LE(community.num_nodes(), 3);
}

TEST(SubgraphTest, UndirectedEdgesPairDirections) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Subgraph full = Community(g, txns[0], 1000);
  auto und = UndirectedEdges(full);
  // 8 linkages = 8 undirected edges, each with both directions present.
  EXPECT_EQ(und.size(), 8u);
  for (const auto& e : und) {
    EXPECT_LT(e.u, e.v);
    EXPECT_GE(e.directed_a, 0);
    EXPECT_GE(e.directed_b, 0);
    // The two directed edges connect the same endpoints, opposite ways.
    EXPECT_EQ(full.src[e.directed_a], e.u);
    EXPECT_EQ(full.dst[e.directed_a], e.v);
    EXPECT_EQ(full.src[e.directed_b], e.v);
    EXPECT_EQ(full.dst[e.directed_b], e.u);
  }
}

TEST(SubgraphTest, LineGraphOfPath) {
  // Path a-b-c: two undirected edges sharing node b => connected in L(G).
  std::vector<UndirectedEdge> edges(2);
  edges[0].u = 0; edges[0].v = 1;
  edges[1].u = 1; edges[1].v = 2;
  auto adj = LineGraphAdjacency(edges, 3);
  ASSERT_EQ(adj.size(), 2u);
  ASSERT_EQ(adj[0].size(), 1u);
  EXPECT_EQ(adj[0][0], 1);
  ASSERT_EQ(adj[1].size(), 1u);
  EXPECT_EQ(adj[1][0], 0);
}

TEST(SubgraphTest, LineGraphOfStar) {
  // Star center 0 with leaves 1,2,3: L(G) is a triangle.
  std::vector<UndirectedEdge> edges(3);
  for (int i = 0; i < 3; ++i) {
    edges[i].u = 0;
    edges[i].v = i + 1;
  }
  auto adj = LineGraphAdjacency(edges, 4);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(adj[i].size(), 2u);
}

TEST(SubgraphTest, LocalNodeTypes) {
  HeteroGraph g = Figure3Builder().Build();
  auto txns = g.NodesOfType(NodeType::kTxn);
  Subgraph community = Community(g, txns[0], 1000);
  auto types = community.LocalNodeTypes(g);
  int txn_count = 0;
  for (auto t : types) txn_count += t == NodeType::kTxn;
  EXPECT_EQ(txn_count, 2);
}

}  // namespace
}  // namespace xfraud::graph
