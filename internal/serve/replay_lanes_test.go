package serve

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/randx"
)

func mkLogin(acct identity.AccountID, ip string) event.Login {
	return event.Login{Account: acct, IP: netip.MustParseAddr(ip)}
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// laneIndex maps each log index to its lane.
func laneIndex(t *testing.T, lanes [][]int) map[int]int {
	t.Helper()
	of := map[int]int{}
	for l, lane := range lanes {
		for _, i := range lane {
			if prev, dup := of[i]; dup {
				t.Fatalf("index %d appears in lanes %d and %d", i, prev, l)
			}
			of[i] = l
		}
	}
	return of
}

func TestPlanLanesSharedIPCouplesAccounts(t *testing.T) {
	// Accounts 1 and 2 never share an IP directly with account 3, but
	// 1–2 share 10.0.0.1 and 2–3 share 10.0.0.2: all three are one
	// component. Account 4 is isolated.
	logins := []event.Login{
		mkLogin(1, "10.0.0.1"),
		mkLogin(2, "10.0.0.1"),
		mkLogin(2, "10.0.0.2"),
		mkLogin(3, "10.0.0.2"),
		mkLogin(4, "10.9.9.9"),
	}
	lanes := planLanes(logins, allIdx(len(logins)), 4)
	of := laneIndex(t, lanes)
	if len(of) != len(logins) {
		t.Fatalf("lanes cover %d of %d events", len(of), len(logins))
	}
	if of[0] != of[1] || of[1] != of[2] || of[2] != of[3] {
		t.Errorf("transitively coupled events split across lanes: %v", of)
	}
	if of[4] == of[0] {
		t.Errorf("isolated account 4 should get its own lane, got %v", of)
	}
}

func TestPlanLanesPreservesLogOrderWithinLane(t *testing.T) {
	rng := randx.New(99).Fork("lanes")
	var logins []event.Login
	for i := 0; i < 500; i++ {
		logins = append(logins, mkLogin(
			identity.AccountID(rng.Intn(40)+1),
			netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(8)), byte(rng.Intn(20))}).String()))
	}
	lanes := planLanes(logins, allIdx(len(logins)), 4)
	of := laneIndex(t, lanes)
	if len(of) != len(logins) {
		t.Fatalf("lanes cover %d of %d events", len(of), len(logins))
	}
	for l, lane := range lanes {
		for k := 1; k < len(lane); k++ {
			if lane[k] <= lane[k-1] {
				t.Fatalf("lane %d breaks log order at %d: %v <= %v", l, k, lane[k], lane[k-1])
			}
		}
	}
	// Every pair of events in different lanes must share neither account
	// nor IP with each other's component; spot-check directly: same
	// account or same IP always implies same lane.
	for i := range logins {
		for j := i + 1; j < len(logins); j++ {
			if logins[i].Account == logins[j].Account || logins[i].IP == logins[j].IP {
				if of[i] != of[j] {
					t.Fatalf("events %d and %d share account/IP but landed in lanes %d and %d",
						i, j, of[i], of[j])
				}
			}
		}
	}
}

func TestPlanLanesSequentialFallback(t *testing.T) {
	logins := []event.Login{mkLogin(1, "10.0.0.1"), mkLogin(2, "10.0.0.2")}
	lanes := planLanes(logins, allIdx(2), 1)
	if len(lanes) != 1 || len(lanes[0]) != 2 {
		t.Fatalf("workers=1 should yield one lane with everything: %v", lanes)
	}
	empty := planLanes(nil, nil, 8)
	if len(empty) != 1 || len(empty[0]) != 0 {
		t.Fatalf("empty input should yield one empty lane: %v", empty)
	}
}

func TestPlanLanesBalance(t *testing.T) {
	// 64 isolated accounts, one event each: greedy LPT over 4 lanes must
	// land 16 per lane.
	var logins []event.Login
	for a := 1; a <= 64; a++ {
		logins = append(logins, mkLogin(identity.AccountID(a),
			netip.AddrFrom4([4]byte{10, 1, byte(a), 1}).String()))
	}
	lanes := planLanes(logins, allIdx(len(logins)), 4)
	for l, lane := range lanes {
		if len(lane) != 16 {
			t.Fatalf("lane %d has %d events, want 16 (%v lane sizes)", l, len(lane),
				[]int{len(lanes[0]), len(lanes[1]), len(lanes[2]), len(lanes[3])})
		}
	}
}

func TestSplitDaysCutsAtUTCMidnight(t *testing.T) {
	day := time.Date(2012, 11, 5, 0, 0, 0, 0, time.UTC)
	var logins []event.Login
	for _, at := range []time.Duration{
		time.Hour, 23*time.Hour + 59*time.Minute, // day 0
		24 * time.Hour, 30 * time.Hour, // day 1
		72 * time.Hour, // day 3
	} {
		logins = append(logins, event.Login{Base: event.Base{Time: day.Add(at)}})
	}
	// Index 3 is skipped, as Replay skips anti-abuse refusals.
	got := splitDays(logins, []int{0, 1, 2, 4})
	want := [][]int{{0, 1}, {2}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("days = %v, want %v", got, want)
	}
	if days := splitDays(logins, nil); len(days) != 0 {
		t.Fatalf("no logins should yield no days: %v", days)
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind()
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = u.add()
	}
	u.union(ids[0], ids[1])
	u.union(ids[2], ids[3])
	u.union(ids[1], ids[3])
	if u.find(ids[0]) != u.find(ids[2]) {
		t.Error("0 and 2 should be connected through 1-3")
	}
	if u.find(ids[4]) == u.find(ids[0]) {
		t.Error("4 should be isolated")
	}
}
