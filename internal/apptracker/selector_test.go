package apptracker

import (
	"math"
	"math/rand"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// testViews wraps a single view served for every AS.
type testViews struct{ v *core.View }

func (t testViews) ViewFor(asn int) DistanceView { return t.v }

// threePIDView: PIDs 0,1,2 with 1 close to 0, 2 far from 0.
func threePIDView() *core.View {
	return &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, 1, 10},
			{1, 0, 10},
			{10, 10, 0},
		},
	}
}

func makeCandidates(spec []struct {
	pid topology.PID
	asn int
	n   int
}) []Node {
	var out []Node
	id := 1
	for _, s := range spec {
		for k := 0; k < s.n; k++ {
			out = append(out, Node{ID: id, PID: s.pid, ASN: s.asn})
			id++
		}
	}
	return out
}

func checkNoSelfNoDup(t *testing.T, self Node, candidates []Node, sel []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= len(candidates) {
			t.Fatalf("index %d out of range", i)
		}
		if candidates[i].ID == self.ID {
			t.Fatal("selected self")
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestRandomSelector(t *testing.T) {
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 10}})
	cands = append(cands, Node{ID: 0, PID: 0, ASN: 1}) // self appears too
	sel := Random{}.Select(self, cands, 5, rand.New(rand.NewSource(1)))
	if len(sel) != 5 {
		t.Fatalf("selected %d, want 5", len(sel))
	}
	checkNoSelfNoDup(t, self, cands, sel)
	// Deterministic given the seed.
	sel2 := Random{}.Select(self, cands, 5, rand.New(rand.NewSource(1)))
	for i := range sel {
		if sel[i] != sel2[i] {
			t.Fatal("random selection not deterministic for fixed seed")
		}
	}
	if (Random{}).Name() != "native" {
		t.Fatal("name wrong")
	}
}

// TestRandomSelectorUniform pins the per-index selection distribution:
// an earlier Floyd's-sampling variant ran m+1 rounds with an early stop,
// which made the last candidate index unreachable whenever self was
// absent from the candidate list (the case at both simulator call
// sites). Every index must land near the uniform expectation, with and
// without self among the candidates.
func TestRandomSelectorUniform(t *testing.T) {
	const (
		n      = 40
		m      = 5
		trials = 20000
	)
	for _, tc := range []struct {
		name    string
		selfIdx int // -1: self not among candidates
	}{
		{"selfAbsent", -1},
		{"selfMid", n / 2},
		{"selfLast", n - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			self := Node{ID: 0}
			cands := make([]Node, n)
			for i := range cands {
				cands[i] = Node{ID: i + 1}
			}
			if tc.selfIdx >= 0 {
				cands[tc.selfIdx] = self
			}
			rng := rand.New(rand.NewSource(11))
			counts := make([]int, n)
			for trial := 0; trial < trials; trial++ {
				sel := Random{}.Select(self, cands, m, rng)
				if len(sel) != m {
					t.Fatalf("selected %d, want %d", len(sel), m)
				}
				checkNoSelfNoDup(t, self, cands, sel)
				for _, i := range sel {
					counts[i]++
				}
			}
			eligible := n
			if tc.selfIdx >= 0 {
				eligible--
			}
			expected := float64(trials) * float64(m) / float64(eligible)
			for i, c := range counts {
				if i == tc.selfIdx {
					if c != 0 {
						t.Fatalf("self at index %d selected %d times", i, c)
					}
					continue
				}
				// ±20% of expectation is ~10 sigma at these sizes: loose
				// enough to never flake, tight enough that a systematically
				// unreachable or doubled index fails loudly.
				if float64(c) < 0.8*expected || float64(c) > 1.2*expected {
					t.Errorf("index %d selected %d times, want %.0f ±20%%", i, c, expected)
				}
			}
		})
	}
}

func TestRandomSelectorExhaustsCandidates(t *testing.T) {
	self := Node{ID: 0}
	cands := []Node{{ID: 1}, {ID: 2}}
	sel := Random{}.Select(self, cands, 10, rand.New(rand.NewSource(1)))
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
}

func TestLocalizedSelectorPicksClosest(t *testing.T) {
	self := Node{ID: 0, PID: 0}
	cands := []Node{
		{ID: 1, PID: 1}, {ID: 2, PID: 2}, {ID: 3, PID: 0}, {ID: 4, PID: 2},
	}
	delay := func(a, b Node) float64 { return math.Abs(float64(a.PID - b.PID)) }
	l := &Localized{Delay: delay}
	sel := l.Select(self, cands, 2, rand.New(rand.NewSource(1)))
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
	// Closest is PID 0 (index 2), then PID 1 (index 0).
	if cands[sel[0]].ID != 3 || cands[sel[1]].ID != 1 {
		t.Fatalf("localized picked %v", sel)
	}
	if l.Name() != "localized" {
		t.Fatal("name wrong")
	}
}

// TestSelectorContract holds every policy to the Selector contract at the
// edges of m and of the candidate list, self listed among them: no
// panic (Localized sliced its sorted list by a negative m), at most
// max(m, 0) indices, none repeated, none self.
func TestSelectorContract(t *testing.T) {
	view := threePIDView()
	match := &Matching{Weights: map[topology.PID]map[topology.PID]float64{0: {1: 0.9, 2: 0.1}}}
	selectors := []Selector{
		Random{},
		&Localized{Delay: func(a, b Node) float64 { return math.Abs(float64(a.PID - b.PID)) }},
		&P4P{Views: testViews{view}},
		&PandoMatching{MatchingFor: func(int) *Matching { return match }},
	}
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := append(makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 4}, {1, 1, 3}, {2, 1, 3}, {1, 2, 3}}), self)
	n := len(cands)
	for _, sel := range selectors {
		for _, cs := range [][]Node{cands, nil} {
			for _, m := range []int{-1, 0, n, n + 5} {
				idx := sel.Select(self, cs, m, rand.New(rand.NewSource(int64(m))))
				if len(idx) > max(m, 0) {
					t.Errorf("%s: m=%d, %d candidates: %d indices", sel.Name(), m, len(cs), len(idx))
				}
				checkNoSelfNoDup(t, self, cs, idx)
			}
		}
	}
}

func TestP4PIntraPIDCap(t *testing.T) {
	self := Node{ID: 0, PID: 0, ASN: 1}
	// Plenty of candidates at self's PID plus others in the same AS.
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 50}, {1, 1, 50}, {2, 1, 50}})
	p := &P4P{Views: testViews{threePIDView()}}
	m := 20
	sel := p.Select(self, cands, m, rand.New(rand.NewSource(2)))
	if len(sel) != m {
		t.Fatalf("selected %d, want %d", len(sel), m)
	}
	checkNoSelfNoDup(t, self, cands, sel)
	intra := 0
	for _, i := range sel {
		if cands[i].PID == 0 {
			intra++
		}
	}
	// Default cap: 70% of 20 = 14.
	if intra != 14 {
		t.Fatalf("intra-PID count = %d, want 14", intra)
	}
}

func TestP4PInterPIDCapAndInterAS(t *testing.T) {
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 50}, {1, 1, 50}, {2, 2, 50}})
	// External PID 2 is as cheap as in-AS PID 1, so the adaptive bound
	// stays at its default.
	flat := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, 1, 1},
			{1, 0, 1},
			{1, 1, 0},
		},
	}
	p := &P4P{Views: testViews{flat}}
	m := 20
	sel := p.Select(self, cands, m, rand.New(rand.NewSource(3)))
	inAS := 0
	for _, i := range sel {
		if cands[i].ASN == 1 {
			inAS++
		}
	}
	// Cumulative in-AS cap: 80% of 20 = 16; the remaining 4 from AS 2.
	if inAS != 16 {
		t.Fatalf("in-AS count = %d, want 16", inAS)
	}
	if len(sel) != m {
		t.Fatalf("selected %d, want %d", len(sel), m)
	}
}

func TestP4PAdaptiveInterASQuota(t *testing.T) {
	// With the external AS ten times more expensive (the Section 6.2
	// adaptation), the in-AS bound rises toward 1 and the inter-AS
	// stage shrinks accordingly.
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 50}, {1, 1, 50}, {2, 2, 50}})
	p := &P4P{Views: testViews{threePIDView()}} // PID 2 at distance 10
	sel := p.Select(self, cands, 20, rand.New(rand.NewSource(3)))
	external := 0
	for _, i := range sel {
		if cands[i].ASN == 2 {
			external++
		}
	}
	if external >= 4 {
		t.Fatalf("external count = %d, want < 4 (quota should adapt down)", external)
	}
	if len(sel) != 20 {
		t.Fatalf("selected %d, want 20", len(sel))
	}
}

func TestP4PPrefersNearPIDsInStage2(t *testing.T) {
	// Self at PID 0; AS has PIDs 1 (distance 1) and 2 (distance 10).
	// Stage 2 should strongly favor PID 1.
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{1, 1, 100}, {2, 1, 100}})
	p := &P4P{Views: testViews{threePIDView()}, Config: P4PConfig{Gamma: 1.0}}
	rng := rand.New(rand.NewSource(4))
	near, far := 0, 0
	for trial := 0; trial < 50; trial++ {
		sel := p.Select(self, cands, 10, rng)
		for _, i := range sel[:8] { // stage 2 covers the first 80%
			switch cands[i].PID {
			case 1:
				near++
			case 2:
				far++
			}
		}
	}
	if near <= far*3 {
		t.Fatalf("stage 2 not distance-weighted: near=%d far=%d", near, far)
	}
}

func TestP4PBackfillsWhenQuotasShort(t *testing.T) {
	// Only far-PID same-AS candidates exist; the selector must still
	// return m peers via backfill.
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{2, 1, 30}})
	p := &P4P{Views: testViews{threePIDView()}}
	sel := p.Select(self, cands, 10, rand.New(rand.NewSource(5)))
	if len(sel) != 10 {
		t.Fatalf("selected %d, want 10", len(sel))
	}
}

func TestP4PFallsBackWithoutView(t *testing.T) {
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 20}})
	p := &P4P{Views: testViews{nil}}
	sel := p.Select(self, cands, 5, rand.New(rand.NewSource(6)))
	if len(sel) != 5 {
		t.Fatalf("fallback selected %d, want 5", len(sel))
	}
	if p.Name() != "p4p" {
		t.Fatal("name wrong")
	}
}

func TestOptimizationServiceWeights(t *testing.T) {
	view := threePIDView()
	svc := &OptimizationService{Views: testViews{view}}
	s := core.Session{
		PIDs: []topology.PID{0, 1, 2},
		Up:   []float64{10, 10, 10},
		Down: []float64{10, 10, 10},
	}
	m, err := svc.Optimize(1, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range s.PIDs {
		row := m.Weights[i]
		sum := 0.0
		for _, w := range row {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights for PID %d sum to %v", i, sum)
		}
	}
	// PID 0 should route more weight to nearby PID 1 than to PID 2.
	if m.Weights[0][1] < m.Weights[0][2] {
		t.Fatalf("matching ignores distance: %v", m.Weights[0])
	}
}

func TestOptimizationServiceUniformFallback(t *testing.T) {
	svc := &OptimizationService{Views: testViews{nil}}
	s := core.Session{
		PIDs: []topology.PID{0, 1},
		Up:   []float64{1, 1},
		Down: []float64{1, 1},
	}
	m, err := svc.Optimize(1, s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights[0][1] != 1 {
		t.Fatalf("uniform fallback weights = %v", m.Weights)
	}
}

func TestPandoMatchingSelection(t *testing.T) {
	match := &Matching{Weights: map[topology.PID]map[topology.PID]float64{
		0: {1: 0.9, 2: 0.1},
	}}
	sel := &PandoMatching{MatchingFor: func(asn int) *Matching { return match }, SelfWeight: 0.5}
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 50}, {1, 1, 50}, {2, 1, 50}})
	rng := rand.New(rand.NewSource(7))
	counts := map[topology.PID]int{}
	for trial := 0; trial < 40; trial++ {
		got := sel.Select(self, cands, 10, rng)
		checkNoSelfNoDup(t, self, cands, got)
		for _, i := range got {
			counts[cands[i].PID]++
		}
	}
	if counts[1] <= counts[2] {
		t.Fatalf("Pando matching ignores weights: %v", counts)
	}
	if sel.Name() != "p4p-pando" {
		t.Fatal("name wrong")
	}
}

func TestPandoMatchingFallback(t *testing.T) {
	sel := &PandoMatching{MatchingFor: func(asn int) *Matching { return nil }}
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 10}})
	got := sel.Select(self, cands, 5, rand.New(rand.NewSource(8)))
	if len(got) != 5 {
		t.Fatalf("fallback selected %d", len(got))
	}
}
