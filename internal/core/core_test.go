package core

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/quality"
	"birch/internal/vec"
)

// gaussianBlobs generates k well-separated clusters of n points each on a
// coarse grid, returning points and ground-truth labels.
func gaussianBlobs(seed int64, k, n int, sep, sd float64) ([]vec.Vector, []int) {
	r := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(k))))
	pts := make([]vec.Vector, 0, k*n)
	labels := make([]int, 0, k*n)
	for c := 0; c < k; c++ {
		cx := float64(c%side) * sep
		cy := float64(c/side) * sep
		for i := 0; i < n; i++ {
			pts = append(pts, vec.Of(cx+r.NormFloat64()*sd, cy+r.NormFloat64()*sd))
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	c := DefaultConfig(2, 10)
	if c.Memory != 80*1024 {
		t.Errorf("Memory = %d, want 80 KB", c.Memory)
	}
	if c.PageSize != 1024 {
		t.Errorf("PageSize = %d, want 1024", c.PageSize)
	}
	if c.OutlierDiskPct != 20 {
		t.Errorf("OutlierDiskPct = %g, want 20", c.OutlierDiskPct)
	}
	if c.InitialThreshold != 0 {
		t.Errorf("InitialThreshold = %g, want 0", c.InitialThreshold)
	}
	if c.Metric != cf.D2 {
		t.Errorf("Metric = %v, want D2", c.Metric)
	}
	if c.ThresholdKind != cf.ThresholdDiameter {
		t.Errorf("ThresholdKind = %v, want diameter", c.ThresholdKind)
	}
	if !c.OutlierHandling || !c.DelaySplit || !c.MergingRefinement {
		t.Error("outlier handling, delay-split and merging refinement should default on")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"zero page", func(c *Config) { c.PageSize = 0 }},
		{"memory below page", func(c *Config) { c.Memory = 100 }},
		{"negative disk pct", func(c *Config) { c.OutlierDiskPct = -1 }},
		{"negative T0", func(c *Config) { c.InitialThreshold = -1 }},
		{"bad metric", func(c *Config) { c.Metric = cf.Metric(9) }},
		{"bad global metric", func(c *Config) { c.GlobalMetric = cf.Metric(9) }},
		{"outlier fraction 0", func(c *Config) { c.OutlierFraction = 0 }},
		{"outlier fraction 1", func(c *Config) { c.OutlierFraction = 1 }},
		{"phase2 tiny target", func(c *Config) { c.Phase3InputSize = 1 }},
		{"negative K", func(c *Config) { c.K = -1 }},
		{"no stopping rule", func(c *Config) { c.K = 0; c.MaxDiameter = 0 }},
		{"kmeans without K", func(c *Config) { c.GlobalAlgorithm = GlobalKMeans; c.K = 0; c.MaxDiameter = 1 }},
		{"refine zero passes", func(c *Config) { c.RefinePasses = 0 }},
		{"discard zero factor", func(c *Config) { c.RefineDiscardOutliers = true; c.RefineDiscardFactor = 0 }},
		{"bad global alg", func(c *Config) { c.GlobalAlgorithm = GlobalAlg(7) }},
	}
	for _, m := range mutations {
		c := DefaultConfig(2, 5)
		m.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestGlobalAlgString(t *testing.T) {
	if GlobalHC.String() != "hc" || GlobalKMeans.String() != "kmeans" {
		t.Error("GlobalAlg names wrong")
	}
	if GlobalAlg(9).String() != "GlobalAlg(9)" {
		t.Error("unknown alg string wrong")
	}
}

func TestRunEmptyInput(t *testing.T) {
	if _, err := Run(nil, DefaultConfig(2, 3)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunRecoversWellSeparatedClusters(t *testing.T) {
	pts, truth := gaussianBlobs(1, 9, 400, 30, 1)
	cfg := DefaultConfig(2, 9)
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 9 {
		t.Fatalf("clusters = %d, want 9", len(res.Clusters))
	}
	if len(res.Labels) != len(pts) {
		t.Fatalf("labels = %d, want %d", len(res.Labels), len(pts))
	}
	// Every found cluster matches one truth cluster closely.
	truthCFs := quality.FromLabels(pts, truth, 9)
	m := quality.MatchClusters(res.Clusters, truthCFs)
	if len(m.Pairs) != 9 {
		t.Fatalf("matched %d/9 clusters", len(m.Pairs))
	}
	if d := m.AvgCentroidDisplacement(); d > 1 {
		t.Fatalf("centroid displacement %g too large", d)
	}
	if sd := quality.SizeDeviation(res.Clusters, truthCFs, m); sd > 0.05 {
		t.Fatalf("size deviation %g > 5%%", sd)
	}
	// Quality close to the actual clustering's.
	actualD := quality.WeightedAvgDiameter(truthCFs)
	foundD := quality.WeightedAvgDiameter(res.Clusters)
	if foundD > actualD*1.15 {
		t.Fatalf("found D̄ %g vs actual %g: more than 15%% worse", foundD, actualD)
	}
}

func TestRunMemoryPressureTriggersRebuilds(t *testing.T) {
	pts, _ := gaussianBlobs(2, 16, 800, 25, 1)
	cfg := DefaultConfig(2, 16)
	cfg.Memory = 8 * 1024 // 8 pages: guaranteed pressure at 12800 points
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase1.Rebuilds == 0 {
		t.Fatal("tiny memory budget caused no rebuilds")
	}
	if res.Stats.Phase1.FinalThreshold <= 0 {
		t.Fatal("threshold did not grow")
	}
	if res.Stats.IO.Rebuilds == 0 {
		t.Fatal("pager did not record rebuilds")
	}
	if len(res.Clusters) != 16 {
		t.Fatalf("clusters = %d, want 16 despite memory pressure", len(res.Clusters))
	}
}

func TestRunWithoutRefine(t *testing.T) {
	pts, _ := gaussianBlobs(3, 4, 300, 40, 1)
	cfg := DefaultConfig(2, 4)
	cfg.Refine = false
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels != nil {
		t.Fatal("labels should be nil without Phase 4")
	}
	if res.Stats.Phase4.Ran {
		t.Fatal("phase 4 ran despite Refine=false")
	}
	if len(res.Clusters) != 4 || len(res.Centroids) != 4 {
		t.Fatalf("clusters/centroids = %d/%d", len(res.Clusters), len(res.Centroids))
	}
}

func TestRunKMeansGlobal(t *testing.T) {
	pts, _ := gaussianBlobs(4, 5, 300, 40, 1)
	cfg := DefaultConfig(2, 5)
	cfg.GlobalAlgorithm = GlobalKMeans
	cfg.Seed = 11
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 5 {
		t.Fatalf("clusters = %d, want 5", len(res.Clusters))
	}
}

func TestRunMaxDiameterStopping(t *testing.T) {
	pts, _ := gaussianBlobs(5, 4, 200, 50, 0.5)
	cfg := DefaultConfig(2, 0)
	cfg.K = 0
	cfg.MaxDiameter = 10 // well below the 50 separation, above blob size
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %d, want 4 via diameter rule", len(res.Clusters))
	}
}

func TestRunMultiPassRefinement(t *testing.T) {
	pts, _ := gaussianBlobs(6, 4, 300, 30, 1.5)
	cfg := DefaultConfig(2, 4)
	cfg.RefinePasses = 3
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase4.Passes != 3 {
		t.Fatalf("passes = %d, want 3", res.Stats.Phase4.Passes)
	}
	// 1 (phase 1) + 3 (refine) dataset scans.
	if got := res.Stats.IO.DatasetScans; got != 4 {
		t.Fatalf("dataset scans = %d, want 4", got)
	}
}

func TestRunDiscardsFarOutliers(t *testing.T) {
	pts, _ := gaussianBlobs(7, 4, 400, 30, 1)
	// Add isolated junk points very far away.
	for i := 0; i < 10; i++ {
		pts = append(pts, vec.Of(10000+float64(i)*1000, -5000))
	}
	cfg := DefaultConfig(2, 4)
	cfg.RefineDiscardOutliers = true
	cfg.RefineDiscardFactor = 5
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outliers == 0 {
		t.Fatal("far outliers were not discarded")
	}
	discarded := 0
	for _, l := range res.Labels[len(pts)-10:] {
		if l == -1 {
			discarded++
		}
	}
	if discarded < 8 {
		t.Fatalf("only %d/10 junk points discarded", discarded)
	}
	// The real clusters keep (almost) all their mass.
	var kept int64
	for i := range res.Clusters {
		kept += res.Clusters[i].N
	}
	if kept < 4*400-10 {
		t.Fatalf("clusters kept only %d points", kept)
	}
}

func TestRunLabelsPartitionConsistent(t *testing.T) {
	pts, _ := gaussianBlobs(8, 6, 250, 30, 1)
	cfg := DefaultConfig(2, 6)
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(res.Clusters))
	for _, l := range res.Labels {
		if l < -1 || l >= len(res.Clusters) {
			t.Fatalf("label %d out of range", l)
		}
		if l >= 0 {
			counts[l]++
		}
	}
	for i := range res.Clusters {
		if counts[i] != res.Clusters[i].N {
			t.Fatalf("cluster %d: %d labels vs N=%d", i, counts[i], res.Clusters[i].N)
		}
	}
}

func TestEngineAddAfterFinishFails(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(vec.Of(1, 2)); err != nil {
		t.Fatal(err)
	}
	eng.FinishPhase1()
	if err := eng.Add(vec.Of(3, 4)); err == nil {
		t.Fatal("Add after FinishPhase1 accepted")
	}
}

func TestEngineDimensionMismatch(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(vec.Of(1, 2, 3)); err == nil {
		t.Fatal("3-d point accepted by 2-d engine")
	}
}

func TestEngineEmptyCFNoop(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddCF(cf.New(2)); err != nil {
		t.Fatal(err)
	}
	if eng.Tree().Points() != 0 {
		t.Fatal("empty CF changed the tree")
	}
}

func TestFinishPhase1Idempotent(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := eng.Add(vec.Of(float64(i%10), float64(i/10))); err != nil {
			t.Fatal(err)
		}
	}
	a := eng.FinishPhase1()
	b := eng.FinishPhase1()
	if a.Points != b.Points || a.LeafEntries != b.LeafEntries {
		t.Fatal("FinishPhase1 not idempotent")
	}
}

func TestPhase2CondensesLeafEntries(t *testing.T) {
	pts, _ := gaussianBlobs(9, 25, 200, 10, 0.8)
	cfg := DefaultConfig(2, 25)
	cfg.Phase3InputSize = 100
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Phase2.Ran {
		t.Fatal("phase 2 did not run")
	}
	if got := res.Stats.Phase3.Inputs; got > 100 {
		t.Fatalf("phase 3 saw %d inputs, want ≤ 100", got)
	}
	if len(res.Clusters) != 25 {
		t.Fatalf("clusters = %d, want 25", len(res.Clusters))
	}
}

func TestPhase2Disabled(t *testing.T) {
	pts, _ := gaussianBlobs(10, 4, 100, 30, 1)
	cfg := DefaultConfig(2, 4)
	cfg.Phase2 = false
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase2.Ran {
		t.Fatal("phase 2 ran despite Phase2=false")
	}
}

func TestOutlierHandlingDisabled(t *testing.T) {
	pts, _ := gaussianBlobs(11, 8, 400, 20, 1)
	cfg := DefaultConfig(2, 8)
	cfg.OutlierHandling = false
	cfg.DelaySplit = false
	cfg.Memory = 16 * 1024
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase1.OutlierSpills != 0 {
		t.Fatal("spills despite outlier handling off")
	}
	if res.Stats.Phase1.OutliersFinal != 0 {
		t.Fatal("discards despite outlier handling off")
	}
	// No data loss: labels account for every point.
	var kept int64
	for i := range res.Clusters {
		kept += res.Clusters[i].N
	}
	if kept != int64(len(pts)) {
		t.Fatalf("kept %d of %d points", kept, len(pts))
	}
}

func TestNoisyDataOutlierDiscard(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts, _ := gaussianBlobs(12, 6, 500, 25, 1)
	// 5% uniform noise over a much larger area.
	for i := 0; i < 150; i++ {
		pts = append(pts, vec.Of(r.Float64()*500-200, r.Float64()*500-200))
	}
	cfg := DefaultConfig(2, 6)
	cfg.Memory = 16 * 1024 // force rebuilds so outlier extraction fires
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase1.OutlierSpills == 0 {
		t.Fatal("no outlier spills on noisy data with tight memory")
	}
	if len(res.Clusters) != 6 {
		t.Fatalf("clusters = %d, want 6", len(res.Clusters))
	}
}

func TestOrderInsensitivity(t *testing.T) {
	pts, _ := gaussianBlobs(13, 9, 300, 30, 1)
	shuffled := make([]vec.Vector, len(pts))
	copy(shuffled, pts)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cfg := DefaultConfig(2, 9)
	a, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shuffled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	da := quality.WeightedAvgDiameter(a.Clusters)
	db := quality.WeightedAvgDiameter(b.Clusters)
	if math.Abs(da-db) > 0.25*math.Max(da, db) {
		t.Fatalf("order sensitivity: D̄ %g (ordered) vs %g (shuffled)", da, db)
	}
}

func TestRunClaransGlobal(t *testing.T) {
	pts, _ := gaussianBlobs(14, 5, 300, 40, 1)
	cfg := DefaultConfig(2, 5)
	cfg.GlobalAlgorithm = GlobalCLARANS
	cfg.Seed = 3
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 5 {
		t.Fatalf("clusters = %d, want 5", len(res.Clusters))
	}
	var mass int64
	for i := range res.Clusters {
		mass += res.Clusters[i].N
	}
	if mass != int64(len(pts)) {
		t.Fatalf("mass %d != %d", mass, len(pts))
	}
}

// TestSoakMillionPoints drives Phase 1 at the paper's "very large
// database" scale: one million points through the default 80 KB budget.
// It verifies the headline engineering claims — bounded memory (tree
// pages never far beyond the budget), single scan, linear-ish throughput
// — and full pipeline correctness at scale.
func TestSoakMillionPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-point soak test")
	}
	r := rand.New(rand.NewSource(99))
	const k = 64
	cfg := DefaultConfig(2, k)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetExpectedN(1_000_000)
	for i := 0; i < 1_000_000; i++ {
		c := i % k
		p := vec.Of(
			float64(c%8)*25+r.NormFloat64(),
			float64(c/8)*25+r.NormFloat64(),
		)
		if err := eng.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.FinishPhase1()
	if st.Points != 1_000_000 {
		t.Fatalf("points = %d", st.Points)
	}
	// Memory boundedness: the tree holds at most the budgeted pages plus
	// the slack the delay-split/final-force-insert paths allow.
	budgetPages := cfg.Memory / cfg.PageSize
	if got := eng.Pager().LivePages(); got > budgetPages*2 {
		t.Fatalf("tree occupies %d pages, budget %d", got, budgetPages)
	}
	if st.LeafEntries > 5000 {
		t.Fatalf("leaf entries = %d: summarization failed", st.LeafEntries)
	}
	// Finish the pipeline (no refinement: the points were streamed).
	res, err := Finish(eng, nil)
	if err == nil {
		t.Fatal("Finish with Refine on and nil points should fail")
	}
	_ = res
	// Retry with refinement off via a fresh condense+cluster path.
	eng2, err := NewEngine(func() Config { c := cfg; c.Refine = false; return c }())
	if err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(rand.NewSource(99))
	for i := 0; i < 1_000_000; i++ {
		c := i % k
		if err := eng2.Add(vec.Of(
			float64(c%8)*25+r2.NormFloat64(),
			float64(c/8)*25+r2.NormFloat64(),
		)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Finish(eng2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Clusters) != k {
		t.Fatalf("clusters = %d, want %d", len(out.Clusters), k)
	}
	var mass int64
	for i := range out.Clusters {
		mass += out.Clusters[i].N
	}
	if mass+out.Outliers != 1_000_000 {
		t.Fatalf("mass %d + outliers %d != 1M", mass, out.Outliers)
	}
	if got := out.Stats.IO.DatasetScans; got != 1 {
		t.Fatalf("dataset scans = %d, want exactly 1", got)
	}
}

func TestNewEngineErrorPaths(t *testing.T) {
	bad := DefaultConfig(2, 2)
	bad.Dim = 0
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestGlobalClusterEmptyTree(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var st Phase3Stats
	if _, err := eng.GlobalCluster(&st); err == nil {
		t.Fatal("empty tree accepted by phase 3")
	}
}

func TestFinishRequiresPointsForRefine(t *testing.T) {
	eng, err := NewEngine(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(vec.Of(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Finish(eng, nil); err == nil {
		t.Fatal("refinement without points accepted")
	}
}
