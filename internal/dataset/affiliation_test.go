package dataset

import (
	"math"
	"testing"

	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

func TestAffiliationBasicInvariants(t *testing.T) {
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 500, Containers: 300, Regime: BalancedRegime,
		MeanMemberships: 3, Seed: 1,
	})
	if len(a.EntityQuality) != 500 || len(a.ContainerQuality) != 300 {
		t.Fatal("quality vector sizes wrong")
	}
	for _, q := range a.EntityQuality {
		if q < 0 || q > 1 {
			t.Fatalf("entity quality %v out of (0,1)", q)
		}
	}
	total := 0
	for c, members := range a.Members {
		seen := map[int32]bool{}
		for _, e := range members {
			if e < 0 || int(e) >= 500 {
				t.Fatalf("container %d has bad member %d", c, e)
			}
			if seen[e] {
				t.Fatalf("container %d lists member %d twice", c, e)
			}
			seen[e] = true
		}
		total += len(members)
	}
	var declared int
	for _, m := range a.Memberships {
		declared += m
	}
	if total != declared {
		t.Errorf("membership bookkeeping: %d listed vs %d declared", total, declared)
	}
	mean := float64(total) / 500
	if mean < 1.5 || mean > 6 {
		t.Errorf("mean memberships = %v, want near 3", mean)
	}
}

func TestCostRegimeInverseQuality(t *testing.T) {
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 2000, Containers: 1000, Regime: CostRegime,
		MeanMemberships: 4, CostExponent: 2, Seed: 2,
	})
	m := make([]float64, len(a.Memberships))
	for i, v := range a.Memberships {
		m[i] = float64(v)
	}
	rho := stats.Spearman(a.EntityQuality, m)
	if rho > -0.5 {
		t.Errorf("cost regime: corr(quality, memberships) = %v, want strongly negative", rho)
	}
}

func TestHubRegimeHeavyTail(t *testing.T) {
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 2000, Containers: 1000, Regime: HubRegime,
		MeanMemberships: 6, ParetoAlpha: 1.6, Seed: 3,
	})
	max, sum := 0, 0
	for _, m := range a.Memberships {
		if m > max {
			max = m
		}
		sum += m
	}
	mean := float64(sum) / 2000
	if float64(max) < 8*mean {
		t.Errorf("hub regime: max %d vs mean %.1f — tail too light", max, mean)
	}
}

func TestBalancedRegimeConcentrated(t *testing.T) {
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 2000, Containers: 2000, Regime: BalancedRegime,
		MeanMemberships: 4, Seed: 4,
	})
	var sum, sumsq float64
	for _, m := range a.Memberships {
		sum += float64(m)
		sumsq += float64(m) * float64(m)
	}
	mean := sum / 2000
	sd := math.Sqrt(sumsq/2000 - mean*mean)
	if sd > mean {
		t.Errorf("balanced regime: σ=%v exceeds mean=%v — not concentrated", sd, mean)
	}
}

func TestTailQualityBias(t *testing.T) {
	// With full bias, tail (≫ mean) entities must be predominantly low
	// quality.
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 4000, Containers: 3000, Regime: BalancedRegime,
		MeanMemberships: 3, TailFraction: 0.1, TailAlpha: 1.2,
		TailQualityBias: 1.0, MaxMemberships: 100, Seed: 5,
	})
	var tailQ, tailN float64
	for i, m := range a.Memberships {
		if m > 12 {
			tailQ += a.EntityQuality[i]
			tailN++
		}
	}
	if tailN < 20 {
		t.Fatalf("only %v tail entities generated", tailN)
	}
	if avg := tailQ / tailN; avg > 0.45 {
		t.Errorf("tail mean quality = %v, want below population mean 0.5", avg)
	}
}

func TestContainerTailCreatesMegaContainers(t *testing.T) {
	cfg := AffiliationConfig{
		Entities: 3000, Containers: 2000, Regime: BalancedRegime,
		MeanMemberships: 3, ContainerTailFraction: 0.01, ContainerTailMix: 0.3,
		Seed: 6,
	}
	a := GenerateAffiliation(cfg)
	counts := a.ContainerMemberCounts()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	noTail := GenerateAffiliation(AffiliationConfig{
		Entities: 3000, Containers: 2000, Regime: BalancedRegime,
		MeanMemberships: 3, Seed: 6,
	})
	maxPlain := 0
	for _, c := range noTail.ContainerMemberCounts() {
		if c > maxPlain {
			maxPlain = c
		}
	}
	if max < 3*maxPlain {
		t.Errorf("mega containers: max size %d vs plain %d — tail ineffective", max, maxPlain)
	}
}

func TestProjectionsConsistent(t *testing.T) {
	a := GenerateAffiliation(AffiliationConfig{
		Entities: 400, Containers: 300, Regime: BalancedRegime,
		MeanMemberships: 3, Seed: 7,
	})
	eg := a.EntityProjection(0)
	cg := a.ContainerProjection(0)
	if err := eg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if eg.NumNodes() != 400 || cg.NumNodes() != 300 {
		t.Errorf("projection sizes %d/%d, want 400/300", eg.NumNodes(), cg.NumNodes())
	}
	// Spot-check one edge weight: pick a container with ≥2 members; its
	// first two members must be adjacent in the entity projection with
	// weight ≥ 1.
	for _, members := range a.Members {
		if len(members) >= 2 {
			u, v := members[0], members[1]
			w, ok := eg.EdgeWeight(u, v)
			if !ok || w < 1 {
				t.Errorf("co-members %d,%d not adjacent (w=%v ok=%v)", u, v, w, ok)
			}
			break
		}
	}
	// Total projection weight equals the co-membership pair count.
	var pairs float64
	for _, members := range a.Members {
		k := float64(len(members))
		pairs += k * (k - 1) / 2
	}
	if got := eg.TotalWeight() / 2; math.Abs(got-pairs) > 1e-9 { // arcs stored twice
		t.Errorf("entity projection total weight %v, want %v co-membership pairs", got, pairs)
	}
}

func TestGenerateAffiliationDeterminism(t *testing.T) {
	cfg := AffiliationConfig{
		Entities: 300, Containers: 200, Regime: CostRegime,
		MeanMemberships: 3, Seed: 8,
	}
	a := GenerateAffiliation(cfg)
	b := GenerateAffiliation(cfg)
	ea := graph.SortedEdges(a.EntityProjection(0))
	eb := graph.SortedEdges(b.EntityProjection(0))
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic projection size")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("nondeterministic edge %d", i)
		}
	}
}

func TestRegimeString(t *testing.T) {
	if CostRegime.String() != "cost" || BalancedRegime.String() != "balanced" || HubRegime.String() != "hub" {
		t.Error("regime names wrong")
	}
	if MembershipRegime(9).String() == "" {
		t.Error("unknown regime must still stringify")
	}
}

func TestSignificanceBlend(t *testing.T) {
	quality := []float64{0.1, 0.5, 0.9, 0.3}
	degrees := []int{10, 5, 1, 8}
	pureQ := SignificanceBlend{QualityWeight: 1, Seed: 1}.Synthesize(quality, degrees)
	if stats.Spearman(pureQ, quality) != 1 {
		t.Error("quality-only blend must be co-monotone with quality")
	}
	pureD := SignificanceBlend{DegreeWeight: 1, Seed: 1}.Synthesize(quality, degrees)
	df := []float64{10, 5, 1, 8}
	if stats.Spearman(pureD, df) != 1 {
		t.Error("degree-only blend must be co-monotone with degree")
	}
	negD := SignificanceBlend{DegreeWeight: -1, Seed: 1}.Synthesize(quality, degrees)
	if stats.Spearman(negD, df) != -1 {
		t.Error("negative degree blend must invert degree order")
	}
}

func TestSignificanceBlendMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths must panic")
		}
	}()
	SignificanceBlend{}.Synthesize([]float64{1}, []int{1, 2})
}

func TestRatingAndCountScales(t *testing.T) {
	s := []float64{-1, 0, 3}
	r := RatingScale(s, 1, 5)
	if r[0] != 1 || r[2] != 5 {
		t.Errorf("RatingScale endpoints = %v", r)
	}
	if r[1] <= r[0] || r[1] >= r[2] {
		t.Errorf("RatingScale not monotone: %v", r)
	}
	if stats.Spearman(s, r) != 1 {
		t.Error("RatingScale must preserve ranks")
	}
	const mid = 2.5
	constant := RatingScale([]float64{4, 4}, 0, 5)
	if constant[0] != mid || constant[1] != mid {
		t.Errorf("constant input must map to midpoint, got %v", constant)
	}
}
