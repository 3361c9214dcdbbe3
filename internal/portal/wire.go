// Package portal carries the iTracker interfaces over HTTP+JSON. The
// paper defines the interfaces in WSDL and serves them with SOAP
// toolkits; this reproduction keeps the interface semantics — policy,
// p4p-distance (raw or ranked), capability, and PID lookup — but uses
// the standard library's net/http and encoding/json (see DESIGN.md,
// "Substitutions"). Clients are configured with a portal's base URL;
// the paper's DNS SRV discovery has no counterpart here.
package portal

import (
	"fmt"
	"math"
	"slices"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// Unreachable is the wire sentinel for an infinite p-distance: JSON has
// no encoding for +Inf, so unreachable PID pairs are sent as -1. The
// decoder is deliberately more tolerant than the encoder: any negative
// distance decodes as unreachable, so a peer that perturbs the sentinel
// (lossy re-encoding, a hostile portal shaving ulps off -1) cannot
// smuggle a "negative cost" path into selection.
const Unreachable = -1

// MaxDistance bounds a plausible finite wire distance. The paper's
// p-distances are link costs and MLU-scaled prices, single-digit to a
// few thousand; anything beyond this is a corrupt or hostile payload,
// not a far-away network, and is rejected rather than fed into the
// weight transform where it would collapse every other weight to zero.
const MaxDistance = 1e15

// ViewWire is the JSON form of a distance view.
type ViewWire struct {
	PIDs    []topology.PID `json:"pids"`
	Matrix  [][]float64    `json:"matrix"`
	Version int            `json:"version"`
}

// ToWire converts a core.View for transmission. Infinities in either
// direction become the Unreachable sentinel (JSON cannot carry them);
// a NaN is left in place so the buffered response writer's encode step
// fails closed with a 500 instead of shipping a poisoned matrix.
func ToWire(v *core.View) *ViewWire {
	w := &ViewWire{PIDs: append([]topology.PID(nil), v.PIDs...), Version: v.Version}
	w.Matrix = make([][]float64, len(v.D))
	for i, row := range v.D {
		w.Matrix[i] = make([]float64, len(row))
		for j, d := range row {
			if math.IsInf(d, 0) {
				w.Matrix[i][j] = Unreachable
			} else {
				w.Matrix[i][j] = d
			}
		}
	}
	return w
}

// FromWire converts a received view back to a core.View, restoring
// infinities and validating shape and range against hostile payloads:
// the matrix must be square over the PID list (see receivedView for the
// rest).
func FromWire(w *ViewWire) (*core.View, error) {
	n := len(w.PIDs)
	if len(w.Matrix) != n {
		return nil, fmt.Errorf("portal: matrix has %d rows for %d PIDs", len(w.Matrix), n)
	}
	for i, row := range w.Matrix {
		if len(row) != n {
			return nil, fmt.Errorf("portal: matrix row %d has %d columns for %d PIDs", i, len(row), n)
		}
	}
	flat := make([]float64, 0, n*n)
	for _, row := range w.Matrix {
		flat = append(flat, row...)
	}
	return receivedView(append([]topology.PID(nil), w.PIDs...), w.Version, flat)
}

// receivedView is the validation every decoder of a received view ends
// in, over the len(pids)² distances it read into flat, row-major: no PID
// may be listed twice (View.Columns would silently let the first column
// win), every distance must be a finite number no larger than
// MaxDistance, and any negative one — not just exactly -1 — decodes as
// unreachable (see Unreachable). The view's rows are slices of flat.
func receivedView(pids []topology.PID, version int, flat []float64) (*core.View, error) {
	n := len(pids)
	sorted := slices.Clone(pids)
	slices.Sort(sorted)
	for i := 1; i < n; i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("portal: PID %d listed twice", sorted[i])
		}
	}
	for k, d := range flat {
		switch {
		case d >= 0 && d <= MaxDistance:
		case d < 0 && d >= -math.MaxFloat64:
			flat[k] = math.Inf(1)
		default:
			return nil, fmt.Errorf("portal: distance %g at (%d,%d) is not finite or exceeds MaxDistance", d, k/n, k%n)
		}
	}
	v := &core.View{PIDs: pids, Version: version, D: make([][]float64, n)}
	for i := range v.D {
		v.D[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return v, nil
}

// PIDPair is one src→dst distance query in a batch request.
type PIDPair struct {
	Src topology.PID `json:"src"`
	Dst topology.PID `json:"dst"`
}

// BatchRequestWire is the JSON body of POST /p4p/v1/distances/batch.
// The GET form carries the same pairs as ?pairs=src-dst,src-dst.
type BatchRequestWire struct {
	Pairs []PIDPair `json:"pairs"`
}

// BatchResponseWire is the JSON response of the batch endpoint:
// distances aligned index-for-index with the requested pairs, encoded
// with the same Unreachable sentinel as the full-matrix endpoint.
type BatchResponseWire struct {
	Version   int       `json:"version"`
	Distances []float64 `json:"distances"`
}

// PIDLookupWire is the JSON response of the PID lookup endpoint.
type PIDLookupWire struct {
	PID topology.PID `json:"pid"`
	ASN int          `json:"asn"`
}

// errorWire is the JSON error envelope.
type errorWire struct {
	Error string `json:"error"`
}
