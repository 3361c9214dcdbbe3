// Package lockheld exercises the lockheld analyzer: blocking calls
// under a held sync.Mutex/RWMutex fire; the release-first and
// branch-local-unlock shapes stay silent.
package lockheld

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// bad sleeps and performs an HTTP round-trip under the mutex.
func (s *store) bad(c *http.Client, req *http.Request) error {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want lockheld
	_, err := c.Do(req)          // want lockheld
	s.mu.Unlock()
	return err
}

// badDefer holds the lock across the encode via defer.
func (s *store) badDefer(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.NewEncoder(w).Encode(s.data) // want lockheld
}

// badRead holds the read lock across io.Copy.
func (s *store) badRead(dst io.Writer, src io.Reader) {
	s.rw.RLock()
	io.Copy(dst, src) // want lockheld
	s.rw.RUnlock()
}

// good snapshots under the lock and encodes after releasing it.
func (s *store) good(w io.Writer) error {
	s.mu.Lock()
	snapshot := make(map[string]int, len(s.data))
	for k, v := range s.data {
		snapshot[k] = v
	}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(snapshot)
}

// goodBranch unlocks early in a branch; the held state must not leak
// past the branch's return, and goroutine bodies are independent.
func (s *store) goodBranch(w io.Writer, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		io.WriteString(w, "fast")
		return
	}
	n := len(s.data)
	s.mu.Unlock()
	go func() {
		io.WriteString(w, "released")
	}()
	_ = n
	io.WriteString(w, "slow")
}

// badDeferredBranch defers the unlock inside a conditional. The defer
// does not release anything until the function returns, so the write
// below still runs with the mutex held — the false negative the
// deferred-held tracking exists to catch.
func (s *store) badDeferredBranch(w io.Writer, fast bool) error {
	s.mu.Lock()
	if fast {
		defer s.mu.Unlock()
	} else {
		defer s.mu.Unlock()
	}
	return json.NewEncoder(w).Encode(s.data) // want lockheld
}

// goodDeferredBranch defers the unlock inside a conditional but does
// nothing blocking before returning.
func (s *store) goodDeferredBranch(fast bool) int {
	s.mu.Lock()
	if fast {
		defer s.mu.Unlock()
		return len(s.data)
	}
	defer s.mu.Unlock()
	return -len(s.data)
}
