// Package leaktest fails a test that leaves behind a goroutine p4p code
// started or a span a tracer recorded. Import it only from _test.go files.
package leaktest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"p4p/internal/trace"
)

// Check fails t unless, within 5 s of wall clock after the test, every
// goroutine p4p code created since the call has exited and each tracer
// reports no span unended (trace.Tracer.Unended). Goroutines are told
// apart by stack, not counted, and the wait yields instead of sleeping.
func Check(t testing.TB, tracers ...*trace.Tracer) {
	before := spawned()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			var leaks []string
			for id, stack := range spawned() {
				if _, old := before[id]; !old {
					leaks = append(leaks, "goroutine left behind: "+stack)
				}
			}
			for _, tr := range tracers {
				if roots, children := tr.Unended(); roots != 0 || children != 0 {
					leaks = append(leaks, fmt.Sprintf("%d recorded roots never ended, %d child spans outlived their root", roots, children))
				}
			}
			if len(leaks) == 0 || time.Now().After(deadline) {
				for _, l := range leaks {
					t.Error(l)
				}
				return
			}
		}
	})
}

// spawned maps each live goroutine that p4p code created, by its
// "goroutine N" header, to its stack.
func spawned() map[string]string {
	buf := make([]byte, 1<<20)
	out := map[string]string{}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if id, _, _ := strings.Cut(g, " ["); strings.Contains(g, "\ncreated by p4p/") {
			out[id] = g
		}
	}
	return out
}
