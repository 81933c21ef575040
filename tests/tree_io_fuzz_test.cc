// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Corruption fuzzing of the TreeArtifact parser: 18k seeded mutations
// (bit flips, truncations, extensions, byte splices, section swaps) of
// valid artifacts in both field encodings (derived and explicit), every
// one of which must come back as a structured Status — kInvalidArgument
// for malformed layout, kDataLoss for a checksum that catches payload
// damage — with zero crashes, hangs, or accepted corruption. CI runs
// this under ASan/UBSan, where any out-of-bounds read in the parser
// would abort.

#include "scalar/tree_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"

namespace graphscape {
namespace {

enum class Base { kVertex, kEdge, kExplicitField };

// kVertex and kEdge are full super trees with their own fields, so their
// field column is derived; kExplicitField perturbs one edge value so the
// column is stored explicitly. Together they cover both encodings.
std::string BaseArtifactBytes(Base base) {
  const bool edge = base != Base::kVertex;
  Rng rng(edge ? 31 : 29);
  const Graph g = BarabasiAlbert(120, 3, &rng);
  TreeArtifact artifact;
  if (edge) {
    const auto kt = EdgeScalarField::FromCounts("KT", TrussNumbers(g));
    artifact.tree = SuperTree(BuildEdgeScalarTree(g, kt));
    artifact.field_name = kt.Name();
    artifact.field_values = kt.Values();
  } else {
    const auto kc = VertexScalarField::FromCounts("KC", CoreNumbers(g));
    artifact.tree = SuperTree(BuildVertexScalarTree(g, kc));
    artifact.field_name = kc.Name();
    artifact.field_values = kc.Values();
  }
  if (base == Base::kExplicitField) artifact.field_values[7] += 0.5;
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes).value();
}

std::string Mutate(const std::string& base, Rng* rng) {
  std::string bytes = base;
  switch (rng->UniformInt(5)) {
    case 0: {  // single bit flip
      const uint32_t offset = rng->UniformInt(
          static_cast<uint32_t>(bytes.size()));
      bytes[offset] =
          static_cast<char>(bytes[offset] ^ (1u << rng->UniformInt(8)));
      break;
    }
    case 1: {  // truncate anywhere (including to empty)
      bytes.resize(rng->UniformInt(
          static_cast<uint32_t>(bytes.size())));
      break;
    }
    case 2: {  // append random garbage
      const uint32_t extra = 1 + rng->UniformInt(64);
      for (uint32_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng->UniformInt(256)));
      }
      break;
    }
    case 3: {  // splice a random span with random bytes
      const uint32_t start = rng->UniformInt(
          static_cast<uint32_t>(bytes.size()));
      const uint32_t len = 1 + rng->UniformInt(32);
      for (uint32_t i = start; i < bytes.size() && i < start + len; ++i) {
        bytes[i] = static_cast<char>(rng->UniformInt(256));
      }
      break;
    }
    default: {  // swap two spans (header vs payload shear)
      const uint32_t half =
          static_cast<uint32_t>(bytes.size()) / 2;
      const uint32_t a = rng->UniformInt(half);
      const uint32_t b = half + rng->UniformInt(half);
      const uint32_t len = 1 + rng->UniformInt(16);
      for (uint32_t i = 0; i < len && a + i < half && b + i < bytes.size();
           ++i) {
        std::swap(bytes[a + i], bytes[b + i]);
      }
      break;
    }
  }
  return bytes;
}

void FuzzArtifact(const std::string& base, uint64_t seed, int rounds) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::string bytes = Mutate(base, &rng);
    // A swap of two equal spans is a no-op; draw again, so every round
    // tests a real mutation. (Flips, truncations and appends always
    // change the bytes, so this terminates.)
    while (bytes == base) bytes = Mutate(base, &rng);
    const StatusOr<TreeArtifact> result = DeserializeTreeArtifact(bytes);
    // Acceptance would mean a 2^-64 FNV collision AND a structurally
    // valid tree — any hit here is a parser hole, not luck.
    ASSERT_FALSE(result.ok()) << "round " << round << " accepted "
                              << bytes.size() << " mutated bytes";
    const StatusCode code = result.status().code();
    ASSERT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss)
        << "round " << round << ": " << result.status().ToString();
  }
}

TEST(TreeIoFuzzTest, VertexArtifactSurvivesTenThousandMutations) {
  FuzzArtifact(BaseArtifactBytes(Base::kVertex), 0xfeedface, 6000);
}

TEST(TreeIoFuzzTest, EdgeArtifactSurvivesTenThousandMutations) {
  FuzzArtifact(BaseArtifactBytes(Base::kEdge), 0xdeadbeef, 6000);
}

TEST(TreeIoFuzzTest, ExplicitFieldArtifactSurvivesSixThousandMutations) {
  const std::string base = BaseArtifactBytes(Base::kExplicitField);
  ASSERT_EQ(base[20], 1) << "the base must store its field explicitly";
  FuzzArtifact(base, 0xc0ffee, 6000);
}

}  // namespace
}  // namespace graphscape
