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
