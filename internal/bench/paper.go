package bench

// Reference values extracted from the paper (§IV-C and Figs. 3, 7, 8), used
// by the renderers and by the shape-assertion tests: the reproduction is
// expected to match these in *shape* (who wins, by what factor), not in
// absolute seconds.

// PaperFig7 holds the single-node statements of §IV-C.
var PaperFig7 = struct {
	FieldAdvantage    float64 // field solver 6× faster on the Cluster
	ParticleAdvantage float64 // particle solver 1.35× faster on the Booster
	GainVsCluster     float64 // C+B 1.28× faster than Cluster-only
	GainVsBooster     float64 // C+B 1.21× faster than Booster-only
}{
	FieldAdvantage:    6.0,
	ParticleAdvantage: 1.35,
	GainVsCluster:     1.28,
	GainVsBooster:     1.21,
}

// PaperFig8 holds the 8-nodes-per-solver statements of §IV-C.
var PaperFig8 = struct {
	GainVsCluster float64 // 1.38× at 8 nodes
	GainVsBooster float64 // 1.34× at 8 nodes
	EffSplit      float64 // 85 % parallel efficiency (C+B)
	EffCluster    float64 // 79 %
	EffBooster    float64 // 77 %
}{
	GainVsCluster: 1.38,
	GainVsBooster: 1.34,
	EffSplit:      0.85,
	EffCluster:    0.79,
	EffBooster:    0.77,
}

// PaperFig3 holds the fabric statements of §II-B / Fig. 3.
var PaperFig3 = struct {
	LatencyCNCNus float64 // 1.0 µs CN-CN (Table I)
	LatencyBNBNus float64 // 1.8 µs BN-BN (Table I)
}{
	LatencyCNCNus: 1.0,
	LatencyBNBNus: 1.8,
}
