// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Versioned, deterministic binary (de)serialization of super trees and
// their fields — the artifact format CI and the figure pipeline exchange
// (a built tree is the expensive part; terrains and queries re-derive
// from it). Design constraints, in order:
//
//  * Deterministic: the same SuperTree serializes to the same bytes on
//    every platform and compiler — fixed little-endian encoding, zero
//    padding bytes, doubles as IEEE-754 bit patterns. CI pins this by
//    serializing on gcc and re-serializing on clang, byte-identical.
//  * Self-validating: deserialization trusts nothing. Magic + version
//    up front, an FNV-1a checksum at the end, and every structural
//    invariant of the contraction (parents precede children, values
//    strictly decrease toward the root, member counts partition the
//    elements, node_of agrees with member_counts) is checked before a
//    SuperTree is constructed — a corrupt or adversarial file yields
//    InvalidArgument, never a broken tree.
//  * Versioned: kTreeIoVersion bumps on any layout change; readers
//    reject every other version instead of misreading it (a cache entry
//    of an older version is quarantined and rebuilt).
//  * Compact and bulk-copyable: each array is one memcpy on both sides,
//    and the field column is left out when the super tree already holds
//    it (Algorithm 2 contracts same-value components, so a full super
//    tree's element value is its node's value).
//
// Layout (version 2), all integers little-endian:
//   "GSTA" | u32 version | u32 num_nodes | u32 num_elements |
//   u32 num_roots | u8 field_encoding | u32 name_len | name bytes |
//   zero pad to a multiple of 8 |
//   f64 node_values[num_nodes] | u32 node_parents[num_nodes] |
//   u32 member_counts[num_nodes] | u32 node_of[num_elements] |
//   zero pad to a multiple of 8 |
//   f64 field_values[num_elements if field_encoding == 1] |
//   u64 fnv1a(everything before it)
//
// field_encoding: 0 = no field; 1 = explicit f64 column; 2 = derived,
// no column: field_values[e] = node_values[node_of[e]]. The writer picks
// 2 only when that holds BITWISE for every element (so -0.0 against a
// +0.0 node value stays explicit), which keeps every round trip exact.
// Every section starts 8-byte aligned, so the arrays can be used in
// place from an aligned buffer. The arrays are copied as host bytes;
// tree_io.cc static_asserts a little-endian host so they stay the
// little-endian layout above.

#ifndef GRAPHSCAPE_SCALAR_TREE_IO_H_
#define GRAPHSCAPE_SCALAR_TREE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "scalar/super_tree.h"

namespace graphscape {

inline constexpr uint32_t kTreeIoVersion = 2;

/// A super tree plus (optionally) the element field it was built from —
/// vertex values for vertex trees, edge values for edge trees.
/// field_values is either empty or exactly NumElements() long.
struct TreeArtifact {
  SuperTree tree;
  std::string field_name;
  std::vector<double> field_values;
};

/// The artifact as bytes (layout above). Deterministic: equal artifacts
/// produce equal strings everywhere, and the field column is derived
/// (encoding 2) exactly when every value bitwise equals its node's. A non-empty field of the wrong
/// length is InvalidArgument in every build type — never an exception,
/// and never a checksummed-but-corrupt artifact.
StatusOr<std::string> SerializeTreeArtifact(const TreeArtifact& artifact);

/// Parses and fully validates. Hostile bytes always come back as a
/// structured Status, never an exception or a broken tree:
/// InvalidArgument on bad magic, any other version, a wrong size,
/// non-zero padding, or any violated tree invariant; DataLoss when the layout parses but the
/// checksum disagrees (bytes were stored and came back wrong — the
/// cache's quarantine-and-rebuild trigger).
StatusOr<TreeArtifact> DeserializeTreeArtifact(const std::string& bytes);

/// Serialize to / parse from a file. SaveTreeArtifact is crash-safe:
/// bytes go through common/fs.h's WriteFileBytesAtomic (temp + fsync +
/// rename + dir fsync), so `path` is only ever absent, the old version,
/// or the complete new version. File errors keep the fs layer's codes:
/// NotFound for a missing file, Unavailable for transient I/O (the
/// retryable class). ReadFileBytes — the read half, which callers like
/// tools/tree_io_check.cc use to byte-compare artifacts — now lives in
/// common/fs.h, re-exported via the include above.
Status SaveTreeArtifact(const TreeArtifact& artifact,
                        const std::string& path);
StatusOr<TreeArtifact> LoadTreeArtifact(const std::string& path);

/// FNV-1a over `bytes` — the same hash the artifact trailer embeds,
/// exposed so the artifact cache's manifest rows and the recovery tests
/// checksum entry files identically.
uint64_t Fnv1aChecksum(const std::string& bytes);

/// Continues an FNV-1a hash over `size` more bytes. FNV-1a streams:
/// Fnv1aExtend(Fnv1aChecksum(a), b) == Fnv1aChecksum(a + b).
uint64_t Fnv1aExtend(uint64_t hash, const char* data, size_t size);

/// Fnv1aChecksum(bytes) of an artifact whose trailer is known to be
/// right — bytes SerializeTreeArtifact produced or
/// DeserializeTreeArtifact accepted — in O(1): the trailer is the hash
/// of everything before it, so only its own 8 bytes remain to hash.
uint64_t VerifiedArtifactChecksum(const std::string& bytes);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_TREE_IO_H_
