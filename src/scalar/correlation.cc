// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/correlation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

// Centered two-pass Pearson over an index window; the shared kernel of
// the global and the per-neighborhood paths.
template <typename IndexRange>
double PearsonOver(const IndexRange& indices, uint32_t count,
                   const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (count < 3) return 0.0;
  double mean_a = 0.0, mean_b = 0.0;
  for (const uint32_t i : indices) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= count;
  mean_b /= count;
  double var_a = 0.0, var_b = 0.0, cov = 0.0;
  for (const uint32_t i : indices) {
    const double da = a[i] - mean_a, db = b[i] - mean_b;
    var_a += da * da;
    var_b += db * db;
    cov += da * db;
  }
  const double denom = std::sqrt(var_a * var_b);
  if (!(denom > 0.0)) return 0.0;  // constant window: neutral
  return cov / denom;
}

// All indices 0..n-1 without materializing them.
struct Iota {
  uint32_t n;
  struct It {
    uint32_t i;
    uint32_t operator*() const { return i; }
    It& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const It& o) const { return i != o.i; }
  };
  It begin() const { return It{0}; }
  It end() const { return It{n}; }
};

// The closed neighborhood {v} ∪ N(v) as an index range over the CSR run.
struct ClosedNeighborhood {
  const Graph* g;
  VertexId v;
  struct It {
    const VertexId* p;
    const VertexId* last;
    VertexId self;
    bool at_self;
    uint32_t operator*() const { return at_self ? self : *p; }
    It& operator++() {
      if (at_self) {
        at_self = false;
      } else {
        ++p;
      }
      return *this;
    }
    bool operator!=(const It& o) const {
      return at_self != o.at_self || p != o.p;
    }
  };
  It begin() const {
    const Graph::NeighborRange r = g->Neighbors(v);
    return It{r.begin(), r.end(), v, true};
  }
  It end() const {
    const Graph::NeighborRange r = g->Neighbors(v);
    return It{r.end(), r.end(), v, false};
  }
};

}  // namespace

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  assert(a.size() == b.size());
  return PearsonOver(Iota{static_cast<uint32_t>(a.size())},
                     static_cast<uint32_t>(a.size()), a, b);
}

std::vector<double> AverageRanks(const std::vector<double>& values) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n);
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg = 0.5 * (i + j);
    for (uint32_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  assert(a.size() == b.size());
  return PearsonCorrelation(AverageRanks(a), AverageRanks(b));
}

std::vector<double> LocalCorrelationIndices(const Graph& g,
                                            const VertexScalarField& a,
                                            const VertexScalarField& b) {
  assert(a.Size() == g.NumVertices() && b.Size() == g.NumVertices());
  std::vector<double> lci(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    lci[v] = PearsonOver(ClosedNeighborhood{&g, v}, g.Degree(v) + 1,
                         a.Values(), b.Values());
  }
  return lci;
}

double Gci(const Graph& g, const VertexScalarField& a,
           const VertexScalarField& b) {
  if (g.NumVertices() == 0) return 0.0;
  const std::vector<double> lci = LocalCorrelationIndices(g, a, b);
  double sum = 0.0;
  for (const double v : lci) sum += v;
  return sum / g.NumVertices();
}

VertexScalarField OutlierScoreField(const Graph& g,
                                    const VertexScalarField& a,
                                    const VertexScalarField& b) {
  std::vector<double> values = LocalCorrelationIndices(g, a, b);
  for (double& v : values) v = -v;
  return VertexScalarField("-LCI(" + a.Name() + "," + b.Name() + ")",
                           std::move(values));
}

std::vector<uint64_t> TopPeakMask(const SuperTree& tree, uint32_t k) {
  std::vector<uint64_t> mask((static_cast<size_t>(tree.NumElements()) + 63) /
                             64);
  for (const Peak& peak : TopPeaks(tree, k)) {
    for (const uint32_t e : tree.Members(peak.super_node)) {
      mask[e >> 6] |= uint64_t{1} << (e & 63);
    }
  }
  return mask;
}

double MaskJaccard(const std::vector<uint64_t>& a,
                   const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(
        "MaskJaccard: masks have different word counts (" +
        std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")");
  }
  uint64_t both = 0, either = 0;
  for (size_t w = 0; w < a.size(); ++w) {
    both += static_cast<uint64_t>(__builtin_popcountll(a[w] & b[w]));
    either += static_cast<uint64_t>(__builtin_popcountll(a[w] | b[w]));
  }
  if (either == 0) return 1.0;
  return static_cast<double>(both) / static_cast<double>(either);
}

double TopPeakJaccard(const SuperTree& a, const SuperTree& b, uint32_t k) {
  // Checked in every build type: the two trees come from independent
  // builds, and two element spaces (|V| vs |E|) can round to the same
  // mask width, so MaskJaccard's word check alone would not catch it.
  if (a.NumElements() != b.NumElements()) {
    throw std::invalid_argument(
        "TopPeakJaccard: trees contract different element spaces (" +
        std::to_string(a.NumElements()) + " vs " +
        std::to_string(b.NumElements()) +
        "); lift edge fields to vertices first");
  }
  return MaskJaccard(TopPeakMask(a, k), TopPeakMask(b, k));
}

VertexScalarField LiftEdgeFieldToVertices(const Graph& g,
                                          const EdgeScalarField& field) {
  assert(field.Size() == g.NumEdges());
  std::vector<double> values(g.NumVertices(), field.MinValue());
  uint32_t e = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (u >= v) continue;  // EdgeList order mints ids on u < v slots
      values[u] = std::max(values[u], field[e]);
      values[v] = std::max(values[v], field[e]);
      ++e;
    }
  }
  return VertexScalarField("lift(" + field.Name() + ")", std::move(values));
}

}  // namespace graphscape
