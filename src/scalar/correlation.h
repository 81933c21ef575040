// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Field-vs-field comparison (paper §III-C): how similarly do two scalar
// fields rank the same graph? Three complementary lenses:
//
//  * Global, value-space: Pearson / Spearman over the shared element
//    support (every vertex, or every edge — or an edge field lifted to
//    vertices for KC-vs-KT style pairs).
//  * Local, neighborhood-space: the Local Correlation Index LCI(v) —
//    Pearson over the closed neighborhood {v} ∪ N(v) — and its mean, the
//    Graph Correlation Index GCI (the paper's 0.89 for degree vs
//    betweenness on Astro). Vertices whose neighborhoods ANTI-correlate
//    while the GCI is strongly positive are the interesting ones — the
//    paper's bridge vertices — so OutlierScoreField turns -LCI into a
//    field whose terrain peaks are exactly those outliers.
//  * Structural, tree-space: Jaccard overlap of the top-k peak member
//    sets of two super trees — do the fields crown the same dense
//    structures?
//
// Conventions: a correlation over fewer than three points, or over a
// window where either field is constant, is defined as 0 (neutral) —
// degenerate neighborhoods carry no evidence either way.

#ifndef GRAPHSCAPE_SCALAR_CORRELATION_H_
#define GRAPHSCAPE_SCALAR_CORRELATION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_field.h"
#include "scalar/super_tree.h"

namespace graphscape {

/// Pearson correlation of two equal-length samples; 0 if fewer than 3
/// points or either sample is constant.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Average-rank transform: element i gets its 0-based position in
/// ascending value order, and a run of equal values shares the mean of
/// its positions. One indirect sort, O(n log n).
std::vector<double> AverageRanks(const std::vector<double>& values);

/// Spearman rank correlation: PearsonCorrelation(AverageRanks(a),
/// AverageRanks(b)), same conventions.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// LCI(v): Pearson over the closed neighborhood {v} ∪ N(v). One O(deg)
/// scan per vertex, no allocation in the loop.
std::vector<double> LocalCorrelationIndices(const Graph& g,
                                            const VertexScalarField& a,
                                            const VertexScalarField& b);

/// GCI: the mean LCI over all vertices (paper §III-C).
double Gci(const Graph& g, const VertexScalarField& a,
           const VertexScalarField& b);

/// -LCI as a field: peaks of its terrain are the vertices whose
/// neighborhoods disagree hardest with the global trend.
VertexScalarField OutlierScoreField(const Graph& g,
                                    const VertexScalarField& a,
                                    const VertexScalarField& b);

/// The element set claimed by TopPeaks(tree, k) (scalar/tree_queries.h)
/// as a bitset: element e is bit e % 64 of word e / 64, and the mask has
/// ceil(NumElements() / 64) words.
std::vector<uint64_t> TopPeakMask(const SuperTree& tree, uint32_t k);

/// Jaccard overlap |A ∩ B| / |A ∪ B| of two bitsets, by popcount over
/// the words; 1.0 when the union is empty. Masks of different word
/// counts throw std::invalid_argument.
double MaskJaccard(const std::vector<uint64_t>& a,
                   const std::vector<uint64_t>& b);

/// MaskJaccard(TopPeakMask(a, k), TopPeakMask(b, k)). Both trees must
/// contract the same element space (same NumElements()) — comparing a
/// vertex tree against an edge tree requires LiftEdgeFieldToVertices
/// first, and a mismatch throws std::invalid_argument in every build
/// type (element ids would index the wrong space).
double TopPeakJaccard(const SuperTree& a, const SuperTree& b, uint32_t k);

/// Lifts an edge field to vertices by taking each vertex's maximum
/// incident value (edge-free vertices take the field minimum), giving
/// KC-vs-KT pairs a shared vertex support.
VertexScalarField LiftEdgeFieldToVertices(const Graph& g,
                                          const EdgeScalarField& field);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_CORRELATION_H_
