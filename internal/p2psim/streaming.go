package p2psim

import "math"

// StreamingConfig switches the simulator into the Liveswarms mode of
// Section 6.2: a swarm-based streaming application whose clients are
// "very similar to BitTorrent clients, but with admission control and
// resource monitoring to accommodate real-time streaming requirements".
// Sources publish pieces at the stream rate; clients fetch pieces
// within a sliding playback window; the run ends at Config.MaxTime
// (the paper streams a 90-minute video but runs each experiment for
// 20 minutes).
type StreamingConfig struct {
	// RateBps is the stream bit rate (default 400 kbit/s).
	RateBps float64
	// ContentSec is the content duration in seconds; with RateBps it
	// determines the total piece count (default 90 minutes).
	ContentSec float64
	// WindowSec is the sliding playback window within which clients
	// request pieces (default 60 s).
	WindowSec float64
}

func (sc *StreamingConfig) withDefaults() {
	if sc.RateBps == 0 {
		sc.RateBps = 400e3
	}
	if sc.ContentSec == 0 {
		sc.ContentSec = 90 * 60
	}
	if sc.WindowSec == 0 {
		sc.WindowSec = 60
	}
}

// pieceInterval is the wall-clock spacing between published pieces.
func (sc *StreamingConfig) pieceInterval(cfg *Config) float64 {
	return float64(cfg.PieceBytes) * 8 / sc.RateBps
}

func (sc *StreamingConfig) totalPieces(cfg *Config) int {
	sc.withDefaults()
	n := int(math.Ceil(sc.ContentSec * sc.RateBps / 8 / float64(cfg.PieceBytes)))
	if n < 1 {
		n = 1
	}
	return n
}

// windowPieces converts the playback window into a piece count.
func (sc *StreamingConfig) windowPieces(cfg *Config) int {
	w := int(math.Ceil(sc.WindowSec / sc.pieceInterval(cfg)))
	if w < 1 {
		w = 1
	}
	return w
}

// schedule arms the first publish event on every source (IsSeed) client.
func (sc *StreamingConfig) schedule(s *Sim) {
	for id, seed := range s.isSeed {
		if seed {
			s.push(event{t: s.joinAt[id], kind: evStreamPiece, id: int32(id)})
		}
	}
}

// handleStreamPiece publishes the next piece at a source and pokes its
// unchoked connections so the fresh data starts flowing.
func (s *Sim) handleStreamPiece(src int32) {
	sc := s.cfg.Streaming
	if s.streamHead >= s.pieces {
		return // content fully published
	}
	p := s.streamHead
	s.streamHead++
	if !s.hasPiece(src, p) {
		s.gainPiece(src, p)
	}
	for _, ci := range s.connsOf[src] {
		cn := &s.conns[ci]
		if cn.unchoked[dirOf(cn, src)] {
			s.tryStartCn(ci, src, peerOf(cn, src))
		}
	}
	s.push(event{t: s.now + sc.pieceInterval(&s.cfg), kind: evStreamPiece, id: src})
}

// pickStreamPiece selects the earliest missing piece within the sliding
// window [head-window, head): streaming favours in-order delivery over
// rarest-first.
func (s *Sim) pickStreamPiece(u, d int32) int {
	sc := s.cfg.Streaming
	lo := s.streamHead - sc.windowPieces(&s.cfg)
	if lo < 0 {
		lo = 0
	}
	for p := lo; p < s.streamHead; p++ {
		if s.hasPiece(u, p) && !s.hasPiece(d, p) &&
			s.pendBits[int(d)*s.hasW+(p>>6)]&(1<<uint(p&63)) == 0 {
			return p
		}
	}
	return -1
}
