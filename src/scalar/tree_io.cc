// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/tree_io.h"

#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace graphscape {
namespace {

// The arrays are memcpy'd as host bytes; the documented layout is
// little-endian, so only a little-endian host writes and reads it.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "tree_io copies arrays as host bytes into a little-endian "
              "layout");
static_assert(sizeof(double) == 8, "IEEE-754 doubles expected");

constexpr char kMagic[4] = {'G', 'S', 'T', 'A'};
constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

// Header fields: magic, version, num_nodes, num_elements, num_roots,
// field encoding, name_len.
constexpr size_t kEncodingOffset = 20;
constexpr size_t kNameLenOffset = 21;
constexpr size_t kHeaderBytes = 25;

enum FieldEncoding : uint8_t {
  kNoField = 0,
  kExplicitField = 1,
  kDerivedField = 2,
};

uint64_t Align8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

// Byte offsets of every section, all implied by the header.
struct Layout {
  uint64_t name_end = 0;
  uint64_t values = 0;
  uint64_t parents = 0;
  uint64_t counts = 0;
  uint64_t node_of = 0;
  uint64_t node_of_end = 0;
  uint64_t field = 0;
  uint64_t trailer = 0;
  uint64_t size = 0;
};

Layout MakeLayout(uint32_t name_len, uint32_t n, uint32_t m,
                  uint8_t encoding) {
  Layout layout;
  layout.name_end = kHeaderBytes + uint64_t{name_len};
  layout.values = Align8(layout.name_end);
  layout.parents = layout.values + 8ull * n;
  layout.counts = layout.parents + 4ull * n;
  layout.node_of = layout.counts + 4ull * n;
  layout.node_of_end = layout.node_of + 4ull * m;
  layout.field = Align8(layout.node_of_end);
  layout.trailer =
      layout.field + (encoding == kExplicitField ? 8ull * m : 0);
  layout.size = layout.trailer + 8;
  return layout;
}

void StoreU32(char* out, uint32_t v) { std::memcpy(out, &v, sizeof(v)); }

uint32_t LoadU32(const char* in) {
  uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* in) {
  uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

// The first `count` items of `items` to `out`, as one copy.
template <typename T>
void StoreArray(char* out, const std::vector<T>& items, uint32_t count) {
  if (count > 0) std::memcpy(out, items.data(), count * sizeof(T));
}

template <typename T>
std::vector<T> LoadArray(const char* in, uint32_t count) {
  std::vector<T> items(count);
  if (count > 0) std::memcpy(items.data(), in, count * sizeof(T));
  return items;
}

bool AllZero(const char* begin, const char* end) {
  for (const char* p = begin; p < end; ++p) {
    if (*p != 0) return false;
  }
  return true;
}

// True when every field value is bitwise its super node's value, so the
// reader can rebuild the column from the tree. Bitwise, not ==: -0.0 and
// +0.0 compare equal but are different artifacts.
bool FieldIsDerived(const SuperTree& tree, const std::vector<double>& field) {
  const std::vector<double>& values = tree.NodeValues();
  const std::vector<uint32_t>& node_of = tree.ElementNodes();
  for (size_t e = 0; e < field.size(); ++e) {
    if (node_of[e] >= values.size() ||
        std::memcmp(&field[e], &values[node_of[e]], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<std::string> SerializeTreeArtifact(const TreeArtifact& artifact) {
  const SuperTree& tree = artifact.tree;
  const uint32_t n = tree.NumNodes();
  const uint32_t m = tree.NumElements();
  const std::vector<double>& field = artifact.field_values;
  // The write side holds the same contract the read side validates:
  // a field is either absent or exactly one value per element. Checked
  // in every build type — serializing past the vector would emit a
  // corrupt-but-checksummed artifact.
  if (!field.empty() && field.size() != m) {
    return Status::InvalidArgument(StrPrintf(
        "tree_io: field has %zu values for %u elements", field.size(), m));
  }
  const uint8_t encoding = field.empty()                ? kNoField
                           : FieldIsDerived(tree, field) ? kDerivedField
                                                         : kExplicitField;
  const uint32_t name_len = static_cast<uint32_t>(artifact.field_name.size());
  const Layout layout = MakeLayout(name_len, n, m, encoding);

  std::string out(layout.size, '\0');  // the padding stays zero
  char* const p = &out[0];
  std::memcpy(p, kMagic, sizeof(kMagic));
  StoreU32(p + 4, kTreeIoVersion);
  StoreU32(p + 8, n);
  StoreU32(p + 12, m);
  StoreU32(p + 16, tree.NumRoots());
  p[kEncodingOffset] = static_cast<char>(encoding);
  StoreU32(p + kNameLenOffset, name_len);
  if (name_len > 0) {
    std::memcpy(p + kHeaderBytes, artifact.field_name.data(), name_len);
  }
  StoreArray(p + layout.values, tree.NodeValues(), n);
  StoreArray(p + layout.parents, tree.NodeParents(), n);
  StoreArray(p + layout.counts, tree.MemberCounts(), n);
  StoreArray(p + layout.node_of, tree.ElementNodes(), m);
  if (encoding == kExplicitField) StoreArray(p + layout.field, field, m);
  const uint64_t checksum = Fnv1aExtend(kFnvOffsetBasis, p, layout.trailer);
  std::memcpy(p + layout.trailer, &checksum, sizeof(checksum));
  return out;
}

StatusOr<TreeArtifact> DeserializeTreeArtifact(const std::string& bytes) {
  const char* const in = bytes.data();
  const size_t size = bytes.size();
  if (size < sizeof(kMagic) ||
      std::memcmp(in, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("tree_io: bad magic");
  }
  if (size < kHeaderBytes) {
    return Status::InvalidArgument("tree_io: truncated header");
  }
  const uint32_t version = LoadU32(in + 4);
  const uint32_t n = LoadU32(in + 8);
  const uint32_t m = LoadU32(in + 12);
  const uint32_t num_roots = LoadU32(in + 16);
  if (version != kTreeIoVersion) {
    return Status::InvalidArgument(
        StrPrintf("tree_io: version %u, this reader understands %u",
                  version, kTreeIoVersion));
  }
  const uint8_t encoding = static_cast<uint8_t>(in[kEncodingOffset]);
  const uint32_t name_len = LoadU32(in + kNameLenOffset);
  if (encoding > kDerivedField) {
    return Status::InvalidArgument("tree_io: bad field flag");
  }

  // Check the advertised sizes against the actual byte count BEFORE any
  // allocation, so a hostile header can't request gigabytes.
  const Layout layout = MakeLayout(name_len, n, m, encoding);
  if (size != layout.size) {
    return Status::InvalidArgument(
        StrPrintf("tree_io: artifact is %llu bytes, header promises %llu",
                  static_cast<unsigned long long>(size),
                  static_cast<unsigned long long>(layout.size)));
  }
  if (LoadU64(in + layout.trailer) !=
      Fnv1aExtend(kFnvOffsetBasis, in, layout.trailer)) {
    // The layout was intact but the payload bytes are not the ones that
    // were checksummed: stored data came back wrong.
    return Status::DataLoss("tree_io: checksum mismatch");
  }
  if (!AllZero(in + layout.name_end, in + layout.values) ||
      !AllZero(in + layout.node_of_end, in + layout.field)) {
    return Status::InvalidArgument("tree_io: non-zero padding");
  }

  TreeArtifact artifact;
  artifact.field_name.assign(in + kHeaderBytes, name_len);
  std::vector<double> node_values = LoadArray<double>(in + layout.values, n);
  std::vector<uint32_t> node_parents =
      LoadArray<uint32_t>(in + layout.parents, n);
  std::vector<uint32_t> member_counts =
      LoadArray<uint32_t>(in + layout.counts, n);
  std::vector<uint32_t> node_of = LoadArray<uint32_t>(in + layout.node_of, m);
  if (encoding == kExplicitField) {
    artifact.field_values = LoadArray<double>(in + layout.field, m);
  }

  // Structural validation: everything SuperTree's from-parts constructor
  // assumes (and TreeMemberIndex relies on).
  uint32_t roots_seen = 0;
  uint64_t members_total = 0;
  for (uint32_t node = 0; node < n; ++node) {
    if (!std::isfinite(node_values[node])) {
      return Status::InvalidArgument("tree_io: non-finite node value");
    }
    if (member_counts[node] == 0) {
      return Status::InvalidArgument("tree_io: empty super node");
    }
    members_total += member_counts[node];
    const uint32_t p = node_parents[node];
    if (p == kInvalidSuperNode) {
      ++roots_seen;
      continue;
    }
    if (p >= node) {
      return Status::InvalidArgument(
          "tree_io: parent does not precede child");
    }
    if (!(node_values[p] < node_values[node])) {
      return Status::InvalidArgument(
          "tree_io: parent value not below child value");
    }
  }
  if (roots_seen != num_roots) {
    return Status::InvalidArgument("tree_io: root count mismatch");
  }
  if (members_total != m) {
    return Status::InvalidArgument(
        "tree_io: member counts do not partition the elements");
  }
  std::vector<uint32_t> seen(n, 0);
  for (uint32_t e = 0; e < m; ++e) {
    if (node_of[e] >= n) {
      return Status::InvalidArgument("tree_io: element node out of range");
    }
    ++seen[node_of[e]];
  }
  for (uint32_t node = 0; node < n; ++node) {
    if (seen[node] != member_counts[node]) {
      return Status::InvalidArgument(
          "tree_io: node_of disagrees with member counts");
    }
  }

  if (encoding == kDerivedField) {
    // node_of passed its range check above, so every lookup is in bounds.
    artifact.field_values.resize(m);
    for (uint32_t e = 0; e < m; ++e) {
      artifact.field_values[e] = node_values[node_of[e]];
    }
  }

  artifact.tree =
      SuperTree(std::move(node_values), std::move(node_parents),
                std::move(member_counts), std::move(node_of), num_roots);
  return artifact;
}

Status SaveTreeArtifact(const TreeArtifact& artifact,
                        const std::string& path) {
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  if (!bytes.ok()) return bytes.status();
  return WriteFileBytesAtomic(path, bytes.value());
}

StatusOr<TreeArtifact> LoadTreeArtifact(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeTreeArtifact(bytes.value());
}

uint64_t Fnv1aChecksum(const std::string& bytes) {
  return Fnv1aExtend(kFnvOffsetBasis, bytes.data(), bytes.size());
}

uint64_t Fnv1aExtend(uint64_t hash, const char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t VerifiedArtifactChecksum(const std::string& bytes) {
  if (bytes.size() < sizeof(uint64_t)) return Fnv1aChecksum(bytes);
  const char* const trailer = bytes.data() + bytes.size() - sizeof(uint64_t);
  return Fnv1aExtend(LoadU64(trailer), trailer, sizeof(uint64_t));
}

}  // namespace graphscape
