package federation

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

// benchShard is an n-PID shard view from PID base up, its distances
// moved by version: the shape of select-fed's two Abilene shards.
func benchShard(base topology.PID, n, version int) *core.View {
	v := &core.View{Version: version, PIDs: make([]topology.PID, n), D: make([][]float64, n)}
	for i := range v.PIDs {
		v.PIDs[i] = base + topology.PID(i)
		v.D[i] = make([]float64, n)
		for j := range v.D[i] {
			if i != j {
				v.D[i][j] = float64(i+j) + float64(version%7)/8
			}
		}
	}
	return v
}

// BenchmarkRouterRefresh times one merged-window expiry on a router over
// two loopback shards (6 + 5 PIDs, one circuit), then one binary and
// one raw distances request: the path a polling appTracker drives.
// "same" revalidates shards that answer 304; "changed" moves one shard
// first, so the pass merges and the requests find new forms.
func BenchmarkRouterRefresh(b *testing.B) {
	for _, changed := range []bool{false, true} {
		name := "same"
		if changed {
			name = "changed"
		}
		b.Run(name, func(b *testing.B) {
			fa := &fakeBackend{view: benchShard(0, 6, 1)}
			fb := &fakeBackend{view: benchShard(10, 5, 1)}
			sa, sb := httptest.NewServer(fa), httptest.NewServer(fb)
			defer sa.Close()
			defer sb.Close()
			rt, err := NewRouter(Config{
				Shards:   []ShardConfig{{Name: "a", BaseURL: sa.URL}, {Name: "b", BaseURL: sb.URL}},
				Circuits: []Circuit{{A: "a", APID: 5, B: "b", BPID: 10, Cost: 3}},
				TTL:      30 * time.Second,
				Client:   fastClient(),
			})
			if err != nil {
				b.Fatal(err)
			}
			clk := newFakeClock()
			rt.nowFn = clk.now
			raw := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
			bin := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
			bin.Header.Set("Accept", portal.BinaryViewType)
			w := &discardWriter{hdr: make(http.Header, 8)}
			serve := func(r *http.Request) {
				w.status = 0
				rt.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			serve(bin)
			serve(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if changed {
					fa.setView(benchShard(0, 6, i+2))
				}
				clk.advance(31 * time.Second)
				serve(bin)
				serve(raw)
			}
		})
	}
}
