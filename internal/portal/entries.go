package portal

import (
	"context"
	"sync"
	"sync/atomic"

	"p4p/internal/core"
	"p4p/internal/trace"
)

// EntryCache is a ViewSource's rendered responses: one Entry per member
// of Forms, each for the key of the view it encodes. K is whatever
// identifies the source's view: the iTracker's engine version, the
// router's merge key. A form is rendered on the first request for it
// after the key moves, so a form nobody asks for is never encoded.
//
// Rendering is a blocking singleflight per form: while one caller
// renders, the others wait, and a waiter only ever returns an entry for
// its own key (never the previous version's). A render that panics
// releases its waiters, and errors are returned, not cached.
type EntryCache[K comparable] struct {
	tag   func(key K, form string) string
	slots [len(Forms)]entrySlot[K]
}

type entrySlot[K comparable] struct {
	cur      atomic.Pointer[keyedEntry[K]]
	mu       sync.Mutex
	inflight chan struct{} // non-nil while one caller renders this form
}

type keyedEntry[K comparable] struct {
	key K
	ent *Entry
}

// NewEntryCache returns an empty cache whose entries carry the
// validator tag(key, form), unquoted.
func NewEntryCache[K comparable](tag func(key K, form string) string) *EntryCache[K] {
	return &EntryCache[K]{tag: tag}
}

// Get returns form's entry for key: the cached one when it was rendered
// for key, else a new one. view runs only on a miss; it returns the
// source's current view and the key that view belongs to, which may be
// newer than key (a price update raced the request). The new entry is
// cached under that key. m, when non-nil, counts the hit or miss.
func (c *EntryCache[K]) Get(ctx context.Context, form string, key K, m *CacheMetrics,
	view func(context.Context) (K, *core.View, error)) (*Entry, error) {
	s := &c.slots[formIndex(form)]
	if e := s.cur.Load(); e != nil && e.key == key {
		m.hit()
		return e.ent, nil
	}
	m.miss()
	s.mu.Lock()
	for {
		if e := s.cur.Load(); e != nil && e.key == key {
			s.mu.Unlock()
			return e.ent, nil
		}
		if done := s.inflight; done != nil {
			// Another caller is rendering this form; wait with the lock
			// released, then re-check.
			s.mu.Unlock()
			_, span := trace.StartSpan(ctx, "encode_wait")
			<-done
			span.End()
			s.mu.Lock()
			continue
		}
		s.inflight = make(chan struct{})
		s.mu.Unlock()
		return c.render(ctx, s, form, view)
	}
}

// render encodes the source's current view for one form. Publication
// and waiter release run under defer, so a panicking view or encoder
// cannot strand the form's singleflight.
func (c *EntryCache[K]) render(ctx context.Context, s *entrySlot[K], form string,
	view func(context.Context) (K, *core.View, error)) (ent *Entry, err error) {
	ctx, span := trace.StartSpan(ctx, "encode")
	defer span.End()
	span.SetAttr("form", form)
	var done *keyedEntry[K]
	defer func() {
		s.mu.Lock()
		if done != nil {
			s.cur.Store(done)
		}
		close(s.inflight)
		s.inflight = nil
		s.mu.Unlock()
	}()
	key, v, err := view(ctx)
	var body []byte
	if err == nil {
		body, err = EncodeView(v, form)
	}
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	span.SetAttrInt("bytes", len(body))
	done = &keyedEntry[K]{key: key, ent: newEntry(v.Version, c.tag(key, form), body)}
	return done.ent, nil
}

// formIndex is form's position in Forms; the handler has validated it.
func formIndex(form string) int {
	for i, f := range Forms {
		if f == form {
			return i
		}
	}
	panic("portal: unknown form " + form)
}
