package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSeeded writes src as a one-file package in a temp dir, loads it,
// and returns the module findings — the seeded-regression harness: if
// an analyzer regresses, the injected defect stops being reported and
// these tests fail.
func loadSeeded(t *testing.T, name, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := sharedLoader().LoadDir(dir, "seeded/"+name)
	if err != nil {
		t.Fatalf("load seeded package: %v", err)
	}
	var all []Finding
	for _, p := range pkgs {
		kept, _ := RunAll(p, Analyzers())
		all = append(all, kept...)
	}
	modKept, _ := RunModuleAll(NewModule(pkgs), Analyzers())
	return append(all, modKept...)
}

func findRule(fs []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestSeededAllocInHotPath injects an allocating construct into an
// otherwise-clean //p4p:hotpath function and requires allochot to
// fire; the clean baseline next to it must stay silent. This is the
// canary for the hot-reachability machinery: if annotation parsing,
// the call graph, or the scanner regress, the injected map literal
// goes unreported.
func TestSeededAllocInHotPath(t *testing.T) {
	const src = `package seeded

//p4p:hotpath seeded
func serve(n int) int {
	scratch := map[int]int{}
	scratch[n] = n
	return tally(scratch[n])
}

func tally(n int) int {
	var total int
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}
`
	findings := findRule(loadSeeded(t, "allocseed", src), "allochot")
	if len(findings) != 1 {
		t.Fatalf("allochot findings = %v, want exactly the injected map literal", findings)
	}
	f := findings[0]
	if f.Pos.Line != 5 {
		t.Errorf("finding at line %d, want 5 (the map literal)", f.Pos.Line)
	}
	if !strings.Contains(f.Msg, "map literal allocates") {
		t.Errorf("finding message %q does not name the map literal", f.Msg)
	}
	if !strings.Contains(f.Msg, "marked //p4p:hotpath") {
		t.Errorf("finding message %q does not explain why the function is hot", f.Msg)
	}
}

// TestSeededAllocViaCallChain moves the injected allocation one call
// away from the annotated root and requires the finding to carry the
// discovery chain.
func TestSeededAllocViaCallChain(t *testing.T) {
	const src = `package seeded

//p4p:hotpath seeded
func serve(n int) []int {
	return grow(n)
}

func grow(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
`
	findings := findRule(loadSeeded(t, "chainseed", src), "allochot")
	if len(findings) != 1 {
		t.Fatalf("allochot findings = %v, want exactly the unsized append", findings)
	}
	if want := "hot via chainseed.serve -> chainseed.grow"; !strings.Contains(findings[0].Msg, want) {
		t.Errorf("finding message %q does not carry the chain %q", findings[0].Msg, want)
	}
}

// TestSeededTransitiveLockHeld injects a lock held across a helper
// that reaches I/O two calls down and requires the interprocedural
// lockheld pass to report the full chain to the blocking call.
func TestSeededTransitiveLockHeld(t *testing.T) {
	const src = `package seeded

import (
	"io"
	"sync"
)

type box struct{ mu sync.Mutex }

func (b *box) flush(dst io.Writer, src io.Reader) {
	b.mu.Lock()
	b.helperA(dst, src)
	b.mu.Unlock()
}

func (b *box) helperA(dst io.Writer, src io.Reader) {
	b.helperB(dst, src)
}

func (b *box) helperB(dst io.Writer, src io.Reader) {
	io.Copy(dst, src)
}
`
	findings := findRule(loadSeeded(t, "lockseed", src), "lockheld")
	if len(findings) != 1 {
		t.Fatalf("lockheld findings = %v, want exactly the transitive call", findings)
	}
	msg := findings[0].Msg
	for _, want := range []string{
		"while b.mu is locked",
		"transitively blocks",
		"lockseed.(*box).helperA -> lockseed.(*box).helperB -> io.Copy",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("finding message %q is missing %q", msg, want)
		}
	}
}

// TestTrailingSuppressionCoversOnlyItsLine: a directive at the end of a
// line covers that line, not the next one as well. A trailing ignore
// used to silence the line below it too, so the TODO root here went
// unreported.
func TestTrailingSuppressionCoversOnlyItsLine(t *testing.T) {
	const src = `package seeded

import "context"

func roots() (context.Context, context.Context) {
	a := context.Background() //p4pvet:ignore ctxflow seeded: the trailing directive covers this line only
	b := context.TODO()
	return a, b
}
`
	findings := loadSeeded(t, "trailseed", src)
	if len(findings) != 1 || findings[0].Rule != "ctxflow" || findings[0].Pos.Line != 7 {
		t.Fatalf("findings = %v, want exactly ctxflow at line 7 (the TODO below the suppressed line)", findings)
	}
}

// TestSeededEveryRule injects one defect per rule and requires exactly
// that rule to fire on exactly the line marked "// defect"; the clean
// twin, src with fix applied, must draw no finding at all. The table
// must name every rule Analyzers() returns, so a rule cannot land
// without a seed.
func TestSeededEveryRule(t *testing.T) {
	cases := []struct {
		rule, name, src string
		fix             [2]string // old, new: turns src into its clean twin
	}{
		{rule: "lockheld", name: "lockheldseed", src: `package seeded

import (
	"sync"
	"time"
)

var mu sync.Mutex

func pace() {
	mu.Lock()
	time.Sleep(time.Millisecond) // defect
	mu.Unlock()
}
`, fix: [2]string{"\tmu.Lock()\n", ""}},
		{rule: "ctxflow", name: "ctxflowseed", src: `package seeded

import "context"

func root() context.Context {
	return context.Background() // defect
}
`, fix: [2]string{"root() context.Context {\n\treturn context.Background()", "root(ctx context.Context) context.Context {\n\treturn ctx"}},
		{rule: "floatsentinel", name: "floatseed", src: `package seeded

func unreachable(d float64) bool {
	return d == -1 // defect
}
`, fix: [2]string{"d == -1", "d < 0"}},
		{rule: "sleeptest", name: "sleepseed_test", src: `package seeded

import (
	"testing"
	"time"
)

func TestPaced(t *testing.T) {
	time.Sleep(time.Millisecond) // defect
}
`, fix: [2]string{"time.Sleep(time.Millisecond)", "_ = time.Millisecond"}},
		{rule: "spanend", name: "spanseed", src: `package seeded

type Span struct{}

func (s *Span) End() {}

func StartSpan() *Span { return &Span{} }

func traced(fail bool) bool {
	sp := StartSpan() // defect
	if fail {
		return false
	}
	sp.End()
	return true
}
`, fix: [2]string{"sp := StartSpan() // defect\n", "sp := StartSpan()\n\tdefer sp.End()\n"}},
		{rule: "allochot", name: "hotseed", src: `package seeded

//p4p:hotpath seeded
func serve(n int) int {
	seen := map[int]bool{n: true} // defect
	return len(seen)
}
`, fix: [2]string{"seen := map[int]bool{n: true}", "seen := [1]int{n}"}},
		{rule: "goroleak", name: "goroseed", src: `package seeded

import "sync"

func spawn(wg *sync.WaitGroup, work func()) {
	go func() { // defect
		work()
	}()
}
`, fix: [2]string{"\t\twork()\n", "\t\tdefer wg.Done()\n\t\twork()\n"}},
	}

	seeded := map[string]bool{}
	for _, tc := range cases {
		seeded[tc.rule] = true
		t.Run(tc.rule, func(t *testing.T) {
			line := 0
			for i, l := range strings.Split(tc.src, "\n") {
				if strings.HasSuffix(l, "// defect") {
					line = i + 1
				}
			}
			findings := loadSeeded(t, tc.name, tc.src)
			if len(findings) != 1 || findings[0].Rule != tc.rule || findings[0].Pos.Line != line {
				t.Errorf("defect: findings = %v, want exactly %s at line %d", findings, tc.rule, line)
			}
			clean := strings.Replace(tc.src, tc.fix[0], tc.fix[1], 1)
			if clean == tc.src {
				t.Fatalf("fix %q does not apply", tc.fix[0])
			}
			if findings := loadSeeded(t, tc.name, clean); len(findings) != 0 {
				t.Errorf("clean twin: findings = %v, want none", findings)
			}
		})
	}
	for _, a := range Analyzers() {
		if !seeded[a.Name] {
			t.Errorf("rule %s has no seeded defect", a.Name)
		}
		delete(seeded, a.Name)
	}
	for rule := range seeded {
		t.Errorf("seeded rule %s is not in Analyzers()", rule)
	}
}
