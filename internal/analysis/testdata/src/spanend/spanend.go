// Package spanend exercises the spanend analyzer. The local Span and
// Tracer stand in for internal/trace — the analyzer matches any Start*
// callee returning *Span, so the fixture stays dependency-free.
package spanend

type Span struct{ name string }

func (s *Span) End()                {}
func (s *Span) SetAttr(k, v string) {}
func (s *Span) RecordError(e error) {}

type Tracer struct{}

func (t *Tracer) StartRoot(name string) *Span { return &Span{name: name} }
func StartSpan(name string) (int, *Span)      { return 0, &Span{name: name} }
func startHelper(name string) *Span           { return &Span{name: name} } // lowercase: not matched

func deferredEnd(t *Tracer) {
	s := t.StartRoot("ok")
	defer s.End()
	s.SetAttr("k", "v")
}

func explicitOnAllPaths(cond bool) {
	_, s := StartSpan("ok")
	if cond {
		s.End()
		return
	}
	s.End()
}

func endAfterWait(t *Tracer, ch chan struct{}) {
	s := t.StartRoot("wait")
	<-ch
	s.End()
}

func neverEnded(t *Tracer) {
	s := t.StartRoot("leak") // want spanend
	s.SetAttr("k", "v")
}

func endOnOnePathOnly(cond bool) {
	_, s := StartSpan("partial") // want spanend
	if cond {
		s.End()
	}
}

func earlyReturnSkipsEnd(cond bool) error {
	_, s := StartSpan("early") // want spanend
	if cond {
		return nil
	}
	s.End()
	return nil
}

func ownershipReturned(t *Tracer) *Span {
	s := t.StartRoot("handoff")
	return s // caller now owns the span; not a leak here
}

func blankResultIgnored() {
	_, _ = StartSpan("discarded") // no variable escapes; out of scope
}

func lowercaseStartIgnored() {
	s := startHelper("x") // not a Start* constructor by convention
	_ = s
}

func loopEachIterationEnds(t *Tracer, n int) {
	for i := 0; i < n; i++ {
		s := t.StartRoot("iter")
		s.End()
	}
}

func loopLeaksEachIteration(t *Tracer, n int) {
	for i := 0; i < n; i++ {
		s := t.StartRoot("iter") // want spanend
		s.SetAttr("i", "v")
	}
}

func continueBeforeEnd(t *Tracer, ch chan int) {
	for v := range ch {
		s := t.StartRoot("recv") // want spanend
		if v > 0 {
			continue
		}
		s.End()
	}
}

func assignedNotDefined(t *Tracer, cond bool) {
	var s *Span
	if cond {
		s = t.StartRoot("cond")
	}
	s.End()
}

func switchEndsWithDefault(t *Tracer, v int) {
	s := t.StartRoot("sw")
	switch v {
	case 1:
		s.End()
	default:
		s.End()
	}
}

func switchWithoutDefaultLeaks(t *Tracer, v int) {
	s := t.StartRoot("sw") // want spanend
	switch v {
	case 1:
		s.End()
	}
}

func selectAlwaysEnds(t *Tracer, a, b chan int) {
	s := t.StartRoot("sel")
	select {
	case <-a:
		s.End()
	case <-b:
		s.End()
	}
}

func funcLitIsOwnUnit(t *Tracer) func() {
	return func() {
		s := t.StartRoot("lit")
		defer s.End()
	}
}

func funcLitLeaks(t *Tracer) func() {
	return func() {
		s := t.StartRoot("lit") // want spanend
		s.SetAttr("k", "v")
	}
}

func panicBranchThenEnd(t *Tracer, bad bool) {
	s := t.StartRoot("guard")
	if bad {
		panic("x") // a crashing path is not the leak this rule reports
	}
	s.End()
}

func ifInitEndedOnBothBranches(t *Tracer, cond bool) {
	if s := t.StartRoot("init"); cond {
		s.End()
	} else {
		s.End()
	}
}

func ifInitEndedOnOneBranch(t *Tracer, cond bool) {
	if s := t.StartRoot("init"); cond { // want spanend
		s.End()
	}
}
