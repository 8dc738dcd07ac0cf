package avsim

import (
	"fmt"
	"sort"
)

// Vendor is one simulated AV engine with its own naming convention and
// noise characteristics. Prior work the paper builds on (Bailey et al.,
// Canto et al.) documents that vendors disagree wildly on names; the
// panel reproduces that disagreement so label-consistency analyses have
// something real to measure.
type Vendor struct {
	// Name is the vendor identifier.
	Name string
	// Style renders a family base name into this vendor's convention.
	Style func(family string) string
	// GenericProb and UndetectedProb are the vendor's noise rates.
	GenericProb    float64
	UndetectedProb float64
	// SuffixSalt decorrelates the vendors' variant-letter assignment.
	SuffixSalt uint64
}

// Panel is a set of vendors labeling the same corpus.
type Panel struct {
	vendors []Vendor
}

// DefaultPanel returns three vendors with distinct conventions and noise
// levels. Vendor naming maps are fixed: the same ground-truth family gets
// a stable per-vendor alias, like real-world cross-vendor naming chaos
// ("Allaple" vs "Rahack").
func DefaultPanel() *Panel {
	alias := func(prefix string, renames map[string]string) func(string) string {
		return func(family string) string {
			if family == "" {
				return ""
			}
			name := family
			if r, ok := renames[family]; ok {
				name = r
			}
			return prefix + name
		}
	}
	return &Panel{vendors: []Vendor{
		{
			Name:           "vendor-a",
			Style:          alias("W32.", map[string]string{"W32.Rahack": "Rahack"}),
			GenericProb:    0.08,
			UndetectedProb: 0.03,
			SuffixSalt:     0xA,
		},
		{
			Name:           "vendor-b",
			Style:          alias("Worm.Win32.", map[string]string{"W32.Rahack": "Allaple"}),
			GenericProb:    0.15,
			UndetectedProb: 0.06,
			SuffixSalt:     0xB,
		},
		{
			Name:           "vendor-c",
			Style:          alias("Win32/", map[string]string{"W32.Rahack": "Rahack"}),
			GenericProb:    0.05,
			UndetectedProb: 0.10,
			SuffixSalt:     0xC,
		},
	}}
}

// Labels returns every vendor's label for a sample. familyAVName is the
// canonical base name the landscape assigns (vendor styles re-render it);
// md5 identifies the sample. Absent detections map to "".
func (p *Panel) Labels(familyAVName, md5 string) map[string]string {
	out := make(map[string]string, len(p.vendors))
	for _, v := range p.vendors {
		h := hashOf(md5) ^ (v.SuffixSalt * 0x9e3779b97f4a7c15)
		u := float64(h%10000) / 10000
		switch {
		case u < v.UndetectedProb:
			out[v.Name] = ""
		case u < v.UndetectedProb+v.GenericProb:
			out[v.Name] = genericLabels[int(h>>16)%len(genericLabels)]
		default:
			base := v.Style(familyAVName)
			if base == "" {
				out[v.Name] = genericLabels[int(h>>16)%len(genericLabels)]
				continue
			}
			out[v.Name] = fmt.Sprintf("%s.%c", base, 'A'+rune((h>>32)%6))
		}
	}
	return out
}

// ConsistencyReport summarizes cross-vendor label agreement over a set of
// samples grouped into clusters.
type ConsistencyReport struct {
	// Samples is the number of labeled samples scored.
	Samples int
	// DetectionRate is the fraction of (sample, vendor) pairs with any
	// label.
	DetectionRate float64
	// MeanDominance is the average, over clusters and vendors, of the
	// share of the cluster covered by the vendor's most common family
	// label — high values mean labels are at least internally consistent.
	MeanDominance float64
	// PerVendorFamilies maps vendor to the number of distinct family base
	// names it used (variant suffixes stripped).
	PerVendorFamilies map[string]int
}

// Consistency scores label agreement: labels maps sample → vendor →
// label; clusters lists sample groups (e.g. M-clusters).
func Consistency(labels map[string]map[string]string, clusters [][]string) ConsistencyReport {
	rep := ConsistencyReport{PerVendorFamilies: make(map[string]int)}
	vendorFamilies := make(map[string]map[string]bool)
	detections, pairs := 0, 0

	var domSum float64
	var domCount int
	for _, cluster := range clusters {
		// vendor -> family label -> count within this cluster.
		counts := make(map[string]map[string]int)
		for _, id := range cluster {
			vl, ok := labels[id]
			if !ok {
				continue
			}
			rep.Samples++
			for vendor, label := range vl {
				pairs++
				if label == "" {
					continue
				}
				detections++
				family := stripVariant(label)
				if counts[vendor] == nil {
					counts[vendor] = make(map[string]int)
				}
				counts[vendor][family]++
				if vendorFamilies[vendor] == nil {
					vendorFamilies[vendor] = make(map[string]bool)
				}
				vendorFamilies[vendor][family] = true
			}
		}
		for _, famCounts := range counts {
			best, total := 0, 0
			for _, c := range famCounts {
				total += c
				if c > best {
					best = c
				}
			}
			if total > 0 {
				domSum += float64(best) / float64(total)
				domCount++
			}
		}
	}
	if pairs > 0 {
		rep.DetectionRate = float64(detections) / float64(pairs)
	}
	if domCount > 0 {
		rep.MeanDominance = domSum / float64(domCount)
	}
	for vendor, fams := range vendorFamilies {
		rep.PerVendorFamilies[vendor] = len(fams)
	}
	return rep
}

// stripVariant removes a trailing single-letter variant suffix.
func stripVariant(label string) string {
	if n := len(label); n > 2 && label[n-2] == '.' {
		return label[:n-2]
	}
	return label
}

// SortedVendors returns the vendor keys of a per-vendor map, sorted.
func SortedVendors[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
