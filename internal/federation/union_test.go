package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/refresh"
	"p4p/internal/topology"
)

// TestUnionOwnersAgree drives one scripted member schedule — healthy, one
// member fails, it recovers with a new version, it starts serving the
// other member's PIDs — through a Router (members fetched over HTTP, a in
// binary and b, a portal that ignores Accept, in JSON; the raw form
// rendered) and through a bare Union reading the same
// backends directly, and requires the same merged view contents, key and
// serving/fresh counts after every step: what an owner adds (auth, the
// range gate, rendering, metrics) must not change what the union holds.
func TestUnionOwnersAgree(t *testing.T) {
	rt, clk, fa, fb := testFederation(t)
	fb.mu.Lock()
	fb.jsonOnly = true
	fb.mu.Unlock()
	backends := []*fakeBackend{fa, fb}
	tm := refresh.Timing{TTL: 30 * time.Second, Now: clk.now}
	bare := NewUnion([]string{"a", "b"}, rt.cfg.Circuits,
		func() refresh.Timing { return tm },
		func(_ context.Context, i int) (MemberView, error) {
			f := backends[i]
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.fail {
				return MemberView{}, errors.New("injected failure")
			}
			return MemberView{View: f.view, Validator: f.etagLocked()}, nil
		}, nil)

	overlap := viewA()
	overlap.Version = 9
	steps := []struct {
		name           string
		apply          func()
		serving, fresh int
		bVersion       int  // shard b's version inside the merge
		mergeFails     bool // the step's pass keeps the previous merged state
	}{
		{"healthy", func() {}, 2, 2, 5, false},
		{"b fails", func() { fb.setFail(true) }, 2, 1, 5, false},
		{"b recovers with a new version", func() {
			fb.setFail(false)
			vb := viewB()
			vb.Version = 6
			vb.D[0][1], vb.D[1][0] = 4.5, 4.5
			fb.setView(vb)
		}, 2, 2, 6, false},
		{"b serves a's PIDs", func() { fb.setView(overlap) }, 2, 2, 6, true},
	}
	for _, st := range steps {
		st.apply()
		clk.advance(31 * time.Second)
		if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: router status %d", st.name, rec.Code)
		}
		bare.Get(context.Background(), tm)
		viaRouter, direct := rt.union.Current(tm), bare.Current(tm)
		if viaRouter == nil || direct == nil {
			t.Fatalf("%s: merged state router %v, bare union %v", st.name, viaRouter, direct)
		}
		if viaRouter.Key != direct.Key {
			t.Errorf("%s: key %q via the router, %q bare", st.name, viaRouter.Key, direct.Key)
		}
		if !reflect.DeepEqual(viaRouter.View.PIDs, direct.View.PIDs) ||
			!reflect.DeepEqual(viaRouter.View.D, direct.View.D) ||
			viaRouter.View.Version != direct.View.Version {
			t.Errorf("%s: merged views differ:\nrouter %+v\nbare   %+v", st.name, viaRouter.View, direct.View)
		}
		if viaRouter.Serving != direct.Serving || viaRouter.Fresh != direct.Fresh {
			t.Errorf("%s: serving/fresh %d/%d via the router, %d/%d bare",
				st.name, viaRouter.Serving, viaRouter.Fresh, direct.Serving, direct.Fresh)
		}
		if direct.Serving != st.serving || direct.Fresh != st.fresh || direct.View.Version != 3+st.bVersion {
			t.Errorf("%s: serving/fresh/version = %d/%d/%d, want %d/%d/%d", st.name,
				direct.Serving, direct.Fresh, direct.View.Version, st.serving, st.fresh, 3+st.bVersion)
		}
		for who, err := range map[string]error{
			"router": rt.union.merged.Snapshot(tm).LastErr, "bare union": bare.merged.Snapshot(tm).LastErr} {
			if (err != nil) != st.mergeFails {
				t.Errorf("%s: %s merged cell's last error = %v, want a failure: %v", st.name, who, err, st.mergeFails)
			}
		}
	}
	for i, f := range backends {
		f.mu.Lock()
		gets, binary := f.gets, f.binary
		f.mu.Unlock()
		want := 0 // b answers JSON whatever it is asked
		if f == fa {
			want = gets
		}
		if gets == 0 || binary != want {
			t.Errorf("shard %d served %d views, %d in binary, want %d", i, gets, binary, want)
		}
	}
}

// TestUnionKeyIsInjective is the regression test for a merge key built
// from raw validators. Backend ETags are outside input, and RFC 9110's
// etagc allows '#', ';' and '=', so "name=validator#version;" tokens
// could run together: a = (x, v1), b = (y#2;b=z, v3) and a = (x#1;b=y,
// v2), b = (z, v3) both gave "a=x#1;b=y#2;b=z#3;", and the router
// republished the first merge over the second. MultiPortalViews has the
// same test in package apptracker.
func TestUnionKeyIsInjective(t *testing.T) {
	rt, clk, fa, fb := testFederation(t)
	one := func(version int, pid topology.PID) *core.View {
		return &core.View{Version: version, PIDs: []topology.PID{pid}, D: [][]float64{{0}}}
	}
	set := func(f *fakeBackend, etag string, v *core.View) {
		f.mu.Lock()
		f.etag, f.view = etag, v
		f.mu.Unlock()
	}
	for _, st := range []struct {
		aTag, bTag string
		a, b       *core.View
		want       []topology.PID
	}{
		{"x", "y#2;b=z", one(1, 1), one(3, 2), []topology.PID{1, 2}},
		{"x#1;b=y", "z", one(2, 5), one(3, 6), []topology.PID{5, 6}},
	} {
		set(fa, st.aTag, st.a)
		set(fb, st.bTag, st.b)
		clk.advance(31 * time.Second)
		rec := get(t, rt, "/p4p/v1/distances", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := decodeView(t, rec.Body.Bytes()).PIDs; !reflect.DeepEqual(got, st.want) {
			t.Errorf("validators %q, %q: merged PIDs %v, want %v", st.aTag, st.bTag, got, st.want)
		}
	}
}

// TestUnionScheduleInvariants drives a bare Union over three scripted
// members through seeded schedules of new versions, unchanged
// revalidations (the same view and validator, as after a 304),
// failures, PID conflicts, fetches that take clock time, clock jumps and
// Invalidate, on a fake clock. After every step:
//   - the merged view is Merge of the members' last-known-good views,
//     or, when those conflict, the last merge that succeeded;
//   - after a successful pass the merged value never expires before an
//     input it holds, and it was stamped fresh while every input whose
//     last fetch succeeded was still fresh, up to the pass's fetch time;
//   - every merge conflict is one failed refresh of the merged cell;
//   - Invalidate leaves nothing fresh, and the next Get refetches every
//     member, failing ones included.
func TestUnionScheduleInvariants(t *testing.T) {
	const ttl = 30 * time.Second
	const maxLatency = time.Second
	names := []string{"a", "b", "c"}
	circuits := []Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7}, {A: "b", APID: 11, B: "c", BPID: 20, Cost: 3}}
	// member is one scripted source: version is what it serves next,
	// conflict makes it serve the next member's PIDs instead of its own.
	type member struct {
		version, fetches int
		fail, conflict   bool
		latency          time.Duration
		last             MemberView
	}
	var allConflicts, invalidates int64
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		tm := refresh.Timing{TTL: ttl, Now: clk.now}
		var mu sync.Mutex
		members := make([]member, len(names))
		for i := range members {
			members[i].version = 1
		}
		fetch := func(_ context.Context, i int) (MemberView, error) {
			mu.Lock()
			defer mu.Unlock()
			m := &members[i]
			m.fetches++
			clk.advance(m.latency)
			if m.fail {
				return MemberView{}, errors.New("injected failure")
			}
			owner := i
			if m.conflict {
				owner = (i + 1) % len(names)
			}
			tag := fmt.Sprintf("v%d-%d", m.version, owner)
			if m.last.Validator != tag { // else: unchanged, as after a 304
				base := topology.PID(10 * owner)
				d := float64(m.version)
				m.last = MemberView{View: mkview(m.version, []topology.PID{base, base + 1}, [][]float64{{0, d}, {d, 0}}), Validator: tag}
			}
			return m.last, nil
		}
		var conflicts int64
		u := NewUnion(names, circuits, func() refresh.Timing { return tm }, fetch,
			func(_ []refresh.Stats, _ *Merged, mergeErr error) {
				if mergeErr != nil {
					conflicts++
				}
			})
		var lastGood *core.View
		check := func(step string) {
			t.Helper()
			ms := u.merged.Snapshot(tm)
			var views []ShardView
			for i, s := range u.Members(tm) {
				if s.Held {
					views = append(views, ShardView{Name: names[i], View: s.Value.View})
				}
				if ms.LastErr != nil || !ms.Held {
					continue
				}
				if s.At.After(ms.At) {
					t.Fatalf("seed %d %s: member %s stamped at %v, after the merged value (%v)", seed, step, names[i], s.At, ms.At)
				}
				if s.LastErr == nil && ms.At.Sub(s.At) >= ttl+time.Duration(len(names))*maxLatency {
					t.Fatalf("seed %d %s: merged stamped %v after member %s, past its TTL", seed, step, ms.At.Sub(s.At), names[i])
				}
			}
			want, err := Merge(views, circuits)
			if (err != nil) != (ms.LastErr != nil) {
				t.Fatalf("seed %d %s: members merge with error %v, merged cell's last refresh %v", seed, step, err, ms.LastErr)
			}
			if err != nil {
				want = lastGood
			}
			var got *core.View
			if ms.Held {
				got = ms.Value.View
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: merged view %+v, want %+v", seed, step, got, want)
			}
			lastGood = want
			if ms.Stats.Failures != conflicts {
				t.Fatalf("seed %d %s: merged cell counts %d failures for %d conflicts", seed, step, ms.Stats.Failures, conflicts)
			}
		}
		u.Get(context.Background(), tm)
		check("first pass")
		for k := 0; k < 80; k++ {
			mu.Lock()
			i := rng.Intn(len(names))
			var step string
			switch a := rng.Intn(6); a {
			case 0, 1:
				members[i].version++
				step = "new version"
			case 2:
				members[i].fail = !members[i].fail
				step = "fail toggled"
			case 3:
				members[i].conflict = !members[i].conflict
				step = "conflict toggled"
			default:
				step = "unchanged"
			}
			for j := range members {
				members[j].latency = time.Duration(rng.Intn(3)) * maxLatency / 2
			}
			invalidate := rng.Intn(8) == 0
			before := make([]int, len(members))
			for j := range members {
				before[j] = members[j].fetches
			}
			mu.Unlock()
			step = fmt.Sprintf("step %d (%s %s)", k, names[i], step)
			if invalidate {
				invalidates++
				u.Invalidate()
				for j, s := range u.Members(tm) {
					if s.Fresh {
						t.Fatalf("seed %d %s: member %s fresh after Invalidate", seed, step, names[j])
					}
				}
				if u.merged.Snapshot(tm).Fresh {
					t.Fatalf("seed %d %s: merged value fresh after Invalidate", seed, step)
				}
			} else {
				clk.advance([]time.Duration{0, 2 * time.Second, 10 * time.Second, ttl + time.Second}[rng.Intn(4)])
			}
			u.Get(context.Background(), tm)
			if invalidate {
				mu.Lock()
				for j := range members {
					if members[j].fetches != before[j]+1 {
						t.Fatalf("seed %d %s: member %s fetched %d times after Invalidate, want 1", seed, step, names[j], members[j].fetches-before[j])
					}
				}
				mu.Unlock()
			}
			check(step)
		}
		allConflicts += conflicts
	}
	if allConflicts == 0 || invalidates == 0 {
		t.Fatalf("the schedules ran %d merge conflicts and %d invalidations; both should occur", allConflicts, invalidates)
	}
}
