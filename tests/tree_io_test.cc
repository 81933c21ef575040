// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Tree artifact serialization: save -> load -> save must be
// byte-identical for vertex and edge trees (the CI cross-compiler
// contract), loaded trees must answer queries like the originals, and
// every corruption mode — bad magic, foreign version, truncation, bit
// flips, non-zero padding, structurally invalid trees — must be rejected
// with InvalidArgument (or DataLoss for a checksum mismatch), never
// accepted. Version 2 stores a full super tree's field as derived and
// any other field as an explicit column; both must round-trip exactly.

#include "scalar/tree_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

TreeArtifact VertexArtifact(uint64_t seed) {
  Rng rng(seed);
  CollaborationOptions options;
  options.num_vertices = 200;
  options.num_planted_cores = 1;
  options.planted_core_size = 8;
  const Graph g = CollaborationNetwork(options, &rng);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildVertexScalarTree(g, kc));
  artifact.field_name = kc.Name();
  artifact.field_values = kc.Values();
  return artifact;
}

TreeArtifact EdgeArtifact(uint64_t seed) {
  Rng rng(seed);
  const Graph g = BarabasiAlbert(150, 3, &rng);
  const EdgeScalarField kt =
      EdgeScalarField::FromCounts("KT", TrussNumbers(g));
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildEdgeScalarTree(g, kt));
  artifact.field_name = kt.Name();
  artifact.field_values = kt.Values();
  return artifact;
}

void ExpectTreesEqual(const SuperTree& a, const SuperTree& b) {
  EXPECT_EQ(a.NodeValues(), b.NodeValues());
  EXPECT_EQ(a.NodeParents(), b.NodeParents());
  EXPECT_EQ(a.MemberCounts(), b.MemberCounts());
  EXPECT_EQ(a.ElementNodes(), b.ElementNodes());
  EXPECT_EQ(a.NumRoots(), b.NumRoots());
}

std::string MustSerialize(const TreeArtifact& artifact) {
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

void ExpectRoundtripByteEqual(const TreeArtifact& artifact) {
  const std::string bytes = MustSerialize(artifact);
  const auto loaded = DeserializeTreeArtifact(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), bytes);
  ExpectTreesEqual(loaded.value().tree, artifact.tree);
  EXPECT_EQ(loaded.value().field_name, artifact.field_name);
  EXPECT_EQ(loaded.value().field_values, artifact.field_values);
}

TEST(TreeIoTest, VertexTreeRoundtripIsByteIdentical) {
  ExpectRoundtripByteEqual(VertexArtifact(3));
}

TEST(TreeIoTest, EdgeTreeRoundtripIsByteIdentical) {
  ExpectRoundtripByteEqual(EdgeArtifact(5));
}

TEST(TreeIoTest, FieldSectionIsOptional) {
  TreeArtifact artifact = VertexArtifact(7);
  artifact.field_name.clear();
  artifact.field_values.clear();
  ExpectRoundtripByteEqual(artifact);
}

TEST(TreeIoTest, SerializeRejectsWrongLengthField) {
  // The write side enforces the one-value-per-element contract the read
  // side validates; a short field must come back as a structured Status
  // (never an exception, never a checksummed corrupt artifact).
  TreeArtifact artifact = VertexArtifact(7);
  artifact.field_values.resize(artifact.field_values.size() / 2);
  const StatusOr<std::string> result = SerializeTreeArtifact(artifact);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, LoadedTreeAnswersQueriesLikeTheOriginal) {
  const TreeArtifact artifact = VertexArtifact(9);
  const auto loaded = DeserializeTreeArtifact(MustSerialize(artifact));
  ASSERT_TRUE(loaded.ok());
  const SuperTree& original = artifact.tree;
  const SuperTree& copy = loaded.value().tree;
  const double top = *std::max_element(original.NodeValues().begin(),
                                       original.NodeValues().end());
  EXPECT_EQ(CountComponentsAtLevel(copy, top),
            CountComponentsAtLevel(original, top));
  const auto original_peaks = PeaksAtLevel(original, top);
  const auto copy_peaks = PeaksAtLevel(copy, top);
  ASSERT_EQ(copy_peaks.size(), original_peaks.size());
  for (size_t i = 0; i < copy_peaks.size(); ++i) {
    EXPECT_EQ(copy_peaks[i].super_node, original_peaks[i].super_node);
    EXPECT_EQ(copy_peaks[i].member_count, original_peaks[i].member_count);
  }
}

TEST(TreeIoTest, SaveAndLoadRoundtripThroughAFile) {
  const TreeArtifact artifact = EdgeArtifact(11);
  const std::string path =
      ::testing::TempDir() + "/graphscape_tree_io_test.gsta";
  ASSERT_TRUE(SaveTreeArtifact(artifact, path).ok());
  const auto loaded = LoadTreeArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadDistinguishesNotFoundFromCorruption) {
  const std::string missing =
      ::testing::TempDir() + "/graphscape_no_such_artifact.gsta";
  const auto not_found = LoadTreeArtifact(missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  // A stored-then-flipped byte is data loss, not an argument error: the
  // caller's recovery is rebuild, not retry.
  const TreeArtifact artifact = VertexArtifact(13);
  std::string bytes = MustSerialize(artifact);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  const auto corrupt = DeserializeTreeArtifact(bytes);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
}

TEST(TreeIoTest, RejectsBadMagicAndForeignVersion) {
  const std::string bytes = MustSerialize(VertexArtifact(3));
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeTreeArtifact(bad_magic).ok());

  std::string future = bytes;
  future[4] = static_cast<char>(kTreeIoVersion + 1);
  EXPECT_FALSE(DeserializeTreeArtifact(future).ok());

  EXPECT_FALSE(DeserializeTreeArtifact("").ok());
  EXPECT_FALSE(DeserializeTreeArtifact("GST").ok());
}

TEST(TreeIoTest, RejectsTruncationAndBitFlips) {
  const std::string bytes = MustSerialize(VertexArtifact(3));
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() / 2, size_t{16}}) {
    EXPECT_FALSE(DeserializeTreeArtifact(bytes.substr(0, keep)).ok())
        << "kept " << keep;
  }
  // A flipped bit anywhere in the payload must trip the checksum (or an
  // earlier structural check) — sample a few offsets across sections.
  for (const size_t offset :
       {size_t{20}, bytes.size() / 3, bytes.size() / 2,
        bytes.size() - 9}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    EXPECT_FALSE(DeserializeTreeArtifact(corrupt).ok())
        << "offset " << offset;
  }
}

TEST(TreeIoTest, RejectsStructurallyInvalidTrees) {
  // A well-formed file (magic, sizes, checksum all fine) whose tree
  // breaks a contraction invariant must still be refused.
  const auto reject = [](SuperTree tree) {
    TreeArtifact artifact;
    artifact.tree = std::move(tree);
    const auto result =
        DeserializeTreeArtifact(MustSerialize(artifact));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };
  // Parent value not strictly below the child's (orientation violation).
  reject(SuperTree({2.0, 2.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 1}, 1));
  // Parent id after the child's (ordering violation -> cycles possible).
  reject(SuperTree({2.0, 1.0}, {1u, kInvalidSuperNode}, {1, 1}, {0, 1}, 1));
  // Member counts that do not partition the elements.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {2, 1}, {0, 1}, 1));
  // node_of disagreeing with member_counts.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 0}, 1));
  // Wrong root count.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 1}, 2));
}

// ------------------------------------------------------ version 2 --

constexpr size_t kEncodingByte = 20;

uint64_t Align8(uint64_t offset) { return (offset + 7) / 8 * 8; }

// The v2 byte count: header + name padded to 8, node arrays, node_of
// padded to 8, the explicit column if any, the trailer.
uint64_t V2Size(const TreeArtifact& artifact, bool explicit_field) {
  const uint64_t n = artifact.tree.NumNodes();
  const uint64_t m = artifact.tree.NumElements();
  return Align8(25 + artifact.field_name.size()) + 16 * n + Align8(4 * m) +
         (explicit_field ? 8 * m : 0) + 8;
}

// Rewrites the trailer so `bytes` checksum clean again after an edit.
void Rechecksum(std::string* bytes) {
  const size_t body = bytes->size() - 8;
  const uint64_t sum = Fnv1aChecksum(bytes->substr(0, body));
  for (int i = 0; i < 8; ++i) {
    (*bytes)[body + i] = static_cast<char>((sum >> (8 * i)) & 0xffu);
  }
}

TEST(TreeIoTest, FullSuperTreeFieldIsDerivedAndSizedByTheFormula) {
  for (const TreeArtifact& artifact : {VertexArtifact(3), EdgeArtifact(5)}) {
    const std::string bytes = MustSerialize(artifact);
    EXPECT_EQ(bytes[kEncodingByte], 2);
    EXPECT_EQ(bytes.size(), V2Size(artifact, /*explicit_field=*/false));
    EXPECT_EQ(bytes.size() % 8, 0u);
    ExpectRoundtripByteEqual(artifact);
  }
}

TEST(TreeIoTest, OneDifferingValueKeepsTheExplicitColumn) {
  TreeArtifact artifact = EdgeArtifact(5);
  artifact.field_values[artifact.field_values.size() / 2] += 0.25;
  const std::string bytes = MustSerialize(artifact);
  EXPECT_EQ(bytes[kEncodingByte], 1);
  EXPECT_EQ(bytes.size(), V2Size(artifact, /*explicit_field=*/true));
  ExpectRoundtripByteEqual(artifact);
}

TEST(TreeIoTest, NegativeZeroAgainstPositiveZeroNodeIsExplicit) {
  // -0.0 == +0.0, but the artifacts differ; only a bitwise comparison
  // keeps the round trip exact.
  TreeArtifact artifact;
  artifact.tree =
      SuperTree({0.0, 1.0}, {kInvalidSuperNode, 0u}, {2, 1}, {0, 1, 0}, 1);
  artifact.field_name = "F";
  artifact.field_values = {-0.0, 1.0, 0.0};
  const std::string bytes = MustSerialize(artifact);
  EXPECT_EQ(bytes[kEncodingByte], 1);
  const auto loaded = DeserializeTreeArtifact(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().field_values.size(), 3u);
  EXPECT_TRUE(std::signbit(loaded.value().field_values[0]));
  EXPECT_FALSE(std::signbit(loaded.value().field_values[2]));
  EXPECT_EQ(MustSerialize(loaded.value()), bytes);
}

TEST(TreeIoTest, RejectsNonZeroPadding) {
  // Name "KC" ends the header at byte 27 and three elements end node_of
  // 4 bytes short of a multiple of 8: both sections carry padding.
  TreeArtifact artifact;
  artifact.tree =
      SuperTree({1.0, 2.0}, {kInvalidSuperNode, 0u}, {2, 1}, {0, 0, 1}, 1);
  artifact.field_name = "KC";
  artifact.field_values = {1.0, 1.0, 2.0};
  const std::string bytes = MustSerialize(artifact);
  ASSERT_TRUE(DeserializeTreeArtifact(bytes).ok());
  const size_t node_of_end = 32 + 16 * 2 + 4 * 3;
  for (const size_t pad : {size_t{27}, size_t{31}, node_of_end}) {
    std::string padded = bytes;
    padded[pad] = 1;
    Rechecksum(&padded);
    const auto result = DeserializeTreeArtifact(padded);
    ASSERT_FALSE(result.ok()) << "pad byte " << pad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TreeIoTest, RejectsVersionOneEvenWithAValidChecksum) {
  std::string bytes = MustSerialize(VertexArtifact(3));
  bytes[4] = 1;
  Rechecksum(&bytes);
  const auto result = DeserializeTreeArtifact(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, TrailerExtendsToTheWholeFileChecksum) {
  const std::string bytes = MustSerialize(EdgeArtifact(5));
  const size_t body = bytes.size() - 8;
  uint64_t trailer = 0;
  for (int i = 0; i < 8; ++i) {
    trailer |= uint64_t{static_cast<unsigned char>(bytes[body + i])}
               << (8 * i);
  }
  EXPECT_EQ(trailer, Fnv1aChecksum(bytes.substr(0, body)));
  EXPECT_EQ(Fnv1aExtend(trailer, bytes.data() + body, 8),
            Fnv1aChecksum(bytes));
  EXPECT_EQ(VerifiedArtifactChecksum(bytes), Fnv1aChecksum(bytes));
}

}  // namespace
}  // namespace graphscape
