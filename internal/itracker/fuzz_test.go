package itracker

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// FuzzITrackerNew drives Config.Check and New with hostile settings on
// Abilene and ISP-B. Each byte of pids is one ServePIDs entry, read as
// an int8 so that negative, out-of-graph, duplicated and unsorted values
// all occur; tokens split on "," is TrustedTokens ("" means an open
// iTracker, and "a," holds the empty token). Either Check refuses the
// config, exactly when it holds an empty token or a PID outside the
// graph, and New panics; or the first DistancesCtx with a trusted token
// serves a view over the sorted, deduped ServePIDs (every aggregation
// PID when none is given), with a zero diagonal and every entry finite
// and non-negative or +Inf, and a caller without a token is refused
// whenever tokens are configured.
func FuzzITrackerNew(f *testing.F) {
	f.Add(false, []byte{3, 1, 3, 0}, "")
	f.Add(false, []byte{10, 0}, "s3cr3t")
	f.Add(false, []byte{11}, "")
	f.Add(false, []byte{0xff, 2}, "")
	f.Add(false, []byte{}, "s3cr3t,")
	f.Add(false, []byte{4}, ",")
	f.Add(true, []byte{50, 7, 7, 0, 33}, "a,b")
	f.Add(true, []byte{}, "")
	f.Add(true, []byte{127}, "a")
	graphs := []*topology.Graph{topology.Abilene(), topology.ISPB()}
	engines := make([]*core.Engine, len(graphs))
	for i, g := range graphs {
		engines[i] = core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	}
	f.Fuzz(func(t *testing.T, ispb bool, pids []byte, tokens string) {
		k := 0
		if ispb {
			k = 1
		}
		g, e := graphs[k], engines[k]
		cfg := Config{Name: g.Name}
		if tokens != "" {
			cfg.TrustedTokens = strings.Split(tokens, ",")
		}
		served := make([]bool, g.NumNodes())
		wantErr := false
		for _, b := range pids {
			p := topology.PID(int8(b))
			cfg.ServePIDs = append(cfg.ServePIDs, p)
			if p < 0 || int(p) >= g.NumNodes() {
				wantErr = true
			} else {
				served[p] = true
			}
		}
		token := ""
		for _, tok := range cfg.TrustedTokens {
			wantErr = wantErr || tok == ""
			token = tok
		}
		if err := cfg.Check(g); (err != nil) != wantErr {
			t.Fatalf("Check(%+v) = %v, want an error: %v", cfg, err, wantErr)
		}
		if wantErr {
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted %+v, which Check refuses", cfg)
				}
			}()
			New(cfg, e, nil)
			return
		}
		tr := New(cfg, e, nil)
		v, err := tr.DistancesCtx(context.Background(), token)
		if err != nil {
			t.Fatalf("DistancesCtx with trusted token %q: %v", token, err)
		}
		var want []topology.PID
		for p, ok := range served {
			if ok {
				want = append(want, topology.PID(p))
			}
		}
		if want == nil {
			want = g.AggregationPIDs()
		}
		if !reflect.DeepEqual(v.PIDs, want) {
			t.Fatalf("ServePIDs %v: view PIDs %v, want %v", cfg.ServePIDs, v.PIDs, want)
		}
		if len(v.D) != len(want) {
			t.Fatalf("view has %d rows for %d PIDs", len(v.D), len(want))
		}
		for a, row := range v.D {
			if len(row) != len(want) || row[a] != 0 {
				t.Fatalf("row %d: %d entries, diagonal %v", a, len(row), row[a])
			}
			for b, d := range row {
				if !(d >= 0 && d <= math.MaxFloat64 || math.IsInf(d, 1)) {
					t.Fatalf("D[%d][%d] = %v", a, b, d)
				}
			}
		}
		if _, err := tr.DistancesCtx(context.Background(), ""); len(cfg.TrustedTokens) > 0 && !errors.Is(err, ErrAccessDenied) {
			t.Fatalf("tokens %q: a caller with no token got err %v, want access denied", tokens, err)
		}
	})
}
