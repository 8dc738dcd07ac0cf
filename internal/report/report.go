// Package report renders the reproduction's tables and figures as text,
// one function per table/figure of the paper.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/epm"
)

// Table1 renders the EPM feature table with discovered invariant counts
// (paper Table 1).
func Table1(e, p, m *epm.Clustering) string {
	var sb strings.Builder
	sb.WriteString("Table 1. Selected features and discovered invariants\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dim.\tFeature\t# invariants\t# distinct")
	for _, c := range []*epm.Clustering{e, p, m} {
		dim := c.Schema.Dimension
		for i, st := range c.Stats {
			label := ""
			if i == 0 {
				label = dim
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", label, st.Feature, st.Invariants, st.DistinctValues)
		}
	}
	_ = tw.Flush()
	return sb.String()
}

// Figure3 renders the filtered E→P→M→B relationship graph.
func Figure3(g *analysis.RelationGraph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3. EPM/B relationships (clusters with >= %d events)\n", g.MinSize)
	fmt.Fprintf(&sb, "layers: E=%d  P=%d  M=%d  B=%d\n",
		len(g.ENodes), len(g.PNodes), len(g.MNodes), len(g.BNodes))
	fmt.Fprintf(&sb, "edges:  E-P=%d  P-M=%d  M-B=%d\n",
		analysis.EdgeCount(g.EP), analysis.EdgeCount(g.PM), analysis.EdgeCount(g.MB))

	writeAdj := func(name string, adj map[int]map[int]int, fromTag, toTag string) {
		fmt.Fprintf(&sb, "%s:\n", name)
		froms := make([]int, 0, len(adj))
		for f := range adj {
			froms = append(froms, f)
		}
		sort.Ints(froms)
		for _, f := range froms {
			tos := make([]int, 0, len(adj[f]))
			for t := range adj[f] {
				tos = append(tos, t)
			}
			sort.Ints(tos)
			parts := make([]string, 0, len(tos))
			for _, t := range tos {
				parts = append(parts, fmt.Sprintf("%s%d(%d)", toTag, t, adj[f][t]))
			}
			fmt.Fprintf(&sb, "  %s%d -> %s\n", fromTag, f, strings.Join(parts, " "))
		}
	}
	writeAdj("exploit -> payload", g.EP, "E", "P")
	writeAdj("payload -> malware", g.PM, "P", "M")
	writeAdj("malware -> behavior", g.MB, "M", "B")
	return sb.String()
}

// Figure4 renders the size-1 B-cluster characteristics: AV label and E/P
// coordinate histograms.
func Figure4(rep *analysis.Size1Report) string {
	var sb strings.Builder
	sb.WriteString("Figure 4. Characteristics of the size-1 B-clusters\n")
	fmt.Fprintf(&sb, "B-clusters total=%d  size-1=%d  (1-1 with an M-cluster: %d, anomalous: %d)\n",
		rep.TotalB, rep.Size1B, rep.OneToOne, len(rep.Anomalous))
	sb.WriteString("AV names of anomalous samples:\n")
	writeHist(&sb, rep.AVNames, len(rep.Anomalous))
	sb.WriteString("propagation strategy (E/P coordinates) of anomalous samples:\n")
	writeHist(&sb, rep.EPCombos, len(rep.Anomalous))
	return sb.String()
}

func writeHist(sb *strings.Builder, hist map[string]int, total int) {
	for _, kv := range analysis.TopCounts(hist, 10) {
		bar := strings.Repeat("#", scale(kv.N, total, 40))
		fmt.Fprintf(sb, "  %-28s %5d %s\n", kv.K, kv.N, bar)
	}
}

func scale(n, total, width int) int {
	if total <= 0 {
		return 0
	}
	w := n * width / total
	if w == 0 && n > 0 {
		w = 1
	}
	return w
}

// Figure5 renders the propagation context of one B-cluster: per-M-cluster
// attacker distribution, activity weeks, and timeline.
func Figure5(rep *analysis.ContextReport, maxM int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5. Propagation context of B-cluster B%d (%d samples)\n", rep.BCluster, rep.BSize)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "M-cluster\tsamples\tevents\tattackers\t/24s\tactive-weeks\tspan\tbursty")
	shown := rep.PerM
	if maxM > 0 && len(shown) > maxM {
		shown = shown[:maxM]
	}
	for _, mc := range shown {
		fmt.Fprintf(tw, "M%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			mc.MCluster, mc.Samples, mc.Events, mc.Attackers, mc.Slash24s,
			mc.ActiveWeeks, mc.SpanWeeks, mc.Bursty())
	}
	_ = tw.Flush()
	sb.WriteString("attacker distribution over the IP space (16 buckets, low to high):\n")
	for _, mc := range shown {
		fmt.Fprintf(&sb, "  M%-4d %s\n", mc.MCluster, histogramStrip(mc.IPHistogram))
	}
	sb.WriteString("timelines (one row per M-cluster, one column per week):\n")
	for _, mc := range shown {
		fmt.Fprintf(&sb, "  M%-4d %s\n", mc.MCluster, analysis.TimelineString(mc.Timeline))
	}
	return sb.String()
}

// histogramStrip renders per-bucket counts as intensity glyphs, the
// compact form of Figure 5's top panels.
func histogramStrip(hist []int) string {
	max := 0
	for _, n := range hist {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return strings.Repeat(".", len(hist))
	}
	glyphs := []byte(" .:-=+*#%@")
	var sb strings.Builder
	sb.Grow(len(hist))
	for _, n := range hist {
		idx := n * (len(glyphs) - 1) / max
		if n > 0 && idx == 0 {
			idx = 1
		}
		sb.WriteByte(glyphs[idx])
	}
	return sb.String()
}

// Table2 renders the IRC C&C correlation.
func Table2(rows []analysis.IRCRow) string {
	var sb strings.Builder
	sb.WriteString("Table 2. IRC servers associated to M-clusters\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Server address\tRoom name\tM-clusters")
	for _, r := range rows {
		ms := make([]string, 0, len(r.MClusters))
		for _, m := range r.MClusters {
			ms = append(ms, fmt.Sprintf("%d", m))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Server, r.Room, strings.Join(ms, ", "))
	}
	_ = tw.Flush()

	if nets := analysis.SharedSubnets(rows); len(nets) > 0 {
		sb.WriteString("shared /24 subnets:\n")
		for _, net := range sortedKeys(nets) {
			fmt.Fprintf(&sb, "  %s: %s\n", net, strings.Join(nets[net], ", "))
		}
	}
	if rooms := analysis.RecurringRooms(rows); len(rooms) > 0 {
		sb.WriteString("recurring room names:\n")
		for _, room := range sortedKeys(rooms) {
			fmt.Fprintf(&sb, "  %s: %s\n", room, strings.Join(rooms[room], ", "))
		}
	}
	return sb.String()
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Temporal renders the cluster-evolution report: per-period activity and
// churn plus the longest-lived clusters.
func Temporal(rep *analysis.TemporalReport, maxRows int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cluster evolution (%s dimension, %d-week periods)\n", rep.Dimension, rep.PeriodWeeks)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "period\tevents\tactive clusters\tnew clusters")
	for _, p := range rep.Periods {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", p.Period, p.Events, p.ActiveClusters, p.NewClusters)
	}
	_ = tw.Flush()
	fmt.Fprintf(&sb, "average churn rate: %.3f\n", rep.ChurnRate())
	long := rep.LongLived(6)
	if maxRows > 0 && len(long) > maxRows {
		long = long[:maxRows]
	}
	if len(long) > 0 {
		sb.WriteString("longest-lived clusters (>= 6 active periods):\n")
		for _, cl := range long {
			lt := rep.Lifetimes[cl]
			fmt.Fprintf(&sb, "  #%d: periods %d..%d (%d active)\n", cl, lt.FirstPeriod, lt.LastPeriod, lt.ActivePeriods)
		}
	}
	return sb.String()
}

// MClusterPattern renders an M-cluster's invariant pattern in the style of
// the paper's §4.2 example listing.
func MClusterPattern(m *epm.Clustering, idx int) string {
	if idx < 0 || idx >= len(m.Clusters) {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "M-cluster %d pattern {\n", idx)
	for i, feat := range m.Schema.Features {
		fmt.Fprintf(&sb, "  %s = %s\n", feat, m.Clusters[idx].Pattern.Values[i])
	}
	sb.WriteString("}\n")
	return sb.String()
}
