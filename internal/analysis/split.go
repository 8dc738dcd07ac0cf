package analysis

import (
	"fmt"
	"sort"

	"repro/internal/epm"
)

// FeatureSplit describes how one feature differentiates a set of
// M-clusters.
type FeatureSplit struct {
	// Feature is the schema feature name.
	Feature string
	// DistinctValues is the number of distinct non-wildcard invariant
	// values across the cluster patterns.
	DistinctValues int
	// Wildcards is the number of patterns with a "do not care" at this
	// feature.
	Wildcards int
	// Values lists the distinct values, sorted (wildcard excluded).
	Values []string
}

// Differentiates reports whether the feature actually separates patterns.
func (fs FeatureSplit) Differentiates() bool {
	return fs.DistinctValues > 1
}

// ExplainSplit compares the classification patterns of a set of M-clusters
// and reports, feature by feature, what distinguishes them — the paper's
// §4.3 reading that "one of the main differentiation factors among the
// different classes is the file size", with occasional linker-version
// changes suggesting recompilation.
func ExplainSplit(mClu *epm.Clustering, mIdxs []int) ([]FeatureSplit, error) {
	if mClu == nil {
		return nil, fmt.Errorf("analysis: ExplainSplit needs a clustering")
	}
	if len(mIdxs) < 2 {
		return nil, fmt.Errorf("analysis: ExplainSplit needs at least two clusters, got %d", len(mIdxs))
	}
	for _, m := range mIdxs {
		if m < 0 || m >= len(mClu.Clusters) {
			return nil, fmt.Errorf("analysis: M-cluster %d out of range", m)
		}
	}

	out := make([]FeatureSplit, len(mClu.Schema.Features))
	for fi, name := range mClu.Schema.Features {
		values := make(map[string]bool)
		wildcards := 0
		for _, m := range mIdxs {
			v := mClu.Clusters[m].Pattern.Values[fi]
			if v == epm.Wildcard {
				wildcards++
				continue
			}
			values[v] = true
		}
		fs := FeatureSplit{Feature: name, DistinctValues: len(values), Wildcards: wildcards}
		for v := range values {
			fs.Values = append(fs.Values, v)
		}
		sort.Strings(fs.Values)
		out[fi] = fs
	}
	// Most differentiating features first, stable by schema order.
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].DistinctValues > out[b].DistinctValues
	})
	return out, nil
}
