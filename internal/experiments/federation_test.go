package experiments

import (
	"reflect"
	"testing"
)

func TestFederationPairDeterministicAndDegrades(t *testing.T) {
	opt := Options{Scale: 0.25, Seed: 42}
	r1 := runID(t, "FED", opt)
	r2 := runID(t, "FED", opt)
	if !reflect.DeepEqual(r1.Values, r2.Values) {
		t.Errorf("FederationPair not deterministic:\n%v\nvs\n%v", r1.Values, r2.Values)
	}

	if got := r1.Values["view-agreement-fraction"]; got != 1 {
		// Intradomain pairs always agree; with Abilene's two circuits the
		// composition may legitimately find a cheaper crossing than the
		// weight-routed path, but it must still cover every pair.
		if got <= 0 || got > 1 {
			t.Errorf("view-agreement-fraction = %v, want (0, 1]", got)
		}
		t.Logf("view agreement = %v (composition found cheaper crossings than OSPF)", got)
	}
	if r1.Values["circuits"] != 2 {
		t.Errorf("circuits = %v, want 2 (Abilene virtual-ISP cuts)", r1.Values["circuits"])
	}
	if fed, nat := r1.Values["cross-isp-fraction/p4p-federated"], r1.Values["cross-isp-fraction/native"]; fed >= nat {
		t.Errorf("federated P4P cross-ISP fraction %v not below native %v", fed, nat)
	}
	if r1.Values["degraded-full-coverage"] != 1 {
		t.Error("federation lost coverage after one portal died")
	}
	if r1.Values["dead-portal-failures"] == 0 {
		t.Error("dead portal recorded no refresh failures")
	}
	if r1.Values["cross-isp-fraction/p4p-degraded"] != r1.Values["cross-isp-fraction/p4p-federated"] {
		t.Error("selection changed after portal death despite unchanged last-known-good view")
	}
}
