package leaktest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"p4p/internal/trace"
)

// recorder is a testing.TB whose cleanups run on demand and whose
// errors are collected instead of failing the test.
type recorder struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recorder) Cleanup(f func())  { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

func (r *recorder) finish() []string {
	for _, f := range r.cleanups {
		f()
	}
	return r.errs
}

// TestCheckFindsLeaks: a goroutine started after Check and still
// blocked, and a recorded root never ended, each fail the check by the
// deadline; a goroutine alive before Check does not. Once released and
// ended, the same state passes.
func TestCheckFindsLeaks(t *testing.T) {
	older := make(chan struct{})
	go func() { <-older }()
	defer close(older)

	rec := &recorder{TB: t}
	tr := trace.NewTracer(nil)
	Check(rec, tr)
	release := make(chan struct{})
	go func() { <-release }()
	_, root := tr.StartRoot(context.Background(), "root")
	errs := rec.finish()
	if len(errs) != 2 || !strings.Contains(errs[0], "TestCheckFindsLeaks.func2") ||
		!strings.Contains(errs[1], "1 recorded roots never ended") {
		t.Errorf("leaks reported as %q, want the new goroutine and the open root", errs)
	}

	rec = &recorder{TB: t}
	Check(rec, tr)
	close(release)
	root.End()
	if errs := rec.finish(); len(errs) != 0 {
		t.Errorf("nothing left behind, but Check reported %q", errs)
	}
}
