package playbook

import (
	"slices"
	"testing"
	"time"

	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
)

// With the day's IP pool spent, NextCred refuses without touching the
// queue or allocating, and the next day resumes with the same head
// credential.
func TestNextCredHoldsQueueWhenPoolExhausted(t *testing.T) {
	w := newWorld(t, 13, 40)
	s := newScaffold("test", "s", geo.China, w.env)
	s.ipPoolSize = 1
	ids := make([]identity.AccountID, 15)
	for i := range ids {
		ids[i] = identity.AccountID(i + 1)
	}
	feed(w, s, ids...)
	// One address carries maxAccountsPerIPDay accounts; the next
	// credential finds the pool exhausted.
	for i := 0; i < maxAccountsPerIPDay; i++ {
		if _, _, ok := s.NextCred(); !ok {
			t.Fatalf("NextCred %d refused with the pool open", i)
		}
	}
	queued := func() []identity.AccountID {
		out := make([]identity.AccountID, 0, len(s.queue))
		for _, c := range s.queue {
			out = append(out, c.Account)
		}
		return out
	}
	before := queued()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := s.NextCred(); ok {
			t.Fatal("NextCred succeeded with the day's IP pool exhausted")
		}
	})
	if allocs != 0 {
		t.Errorf("refused NextCred allocated %.1f times per call, want 0", allocs)
	}
	if s.QueueLen() != len(before) || !slices.Equal(queued(), before) {
		t.Fatalf("queue changed by refused calls: %v, want %v", queued(), before)
	}

	w.clock.RunUntil(w.clock.Now().Add(24 * time.Hour))
	cred, _, ok := s.NextCred()
	if !ok {
		t.Fatal("NextCred refused on the next day")
	}
	if cred.Account != before[0] {
		t.Fatalf("next day resumed with account %d, want head %d", cred.Account, before[0])
	}
}
