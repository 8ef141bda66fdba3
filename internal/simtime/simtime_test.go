package simtime

import (
	"sync"
	"testing"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{3e-9, "3.0ns"},
		{15 * Microsecond, "15.0µs"},
		{2500 * Microsecond, "2.50ms"},
		{1.5 * Second, "1.50s"},
		{300 * Second, "5.0min"},
		{3 * Hour, "3.00h"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Fatalf("%v.String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Min(1, 2) != 1 || Min(3, 2) != 2 {
		t.Fatal("Min broken")
	}
}

func TestLedgerAccumulation(t *testing.T) {
	l := NewLedger()
	l.Add(Compute, 2*Second)
	l.Add(Compute, 3*Second)
	l.Add(Network, 1*Second)

	snap := l.Snapshot()
	if snap[Compute] != 5*Second || snap[Network] != Second || len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[Compute] = 0
	if l.Snapshot()[Compute] != 5*Second {
		t.Fatal("Snapshot aliases the ledger")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Add(Compute, Millisecond)
			}
		}()
	}
	wg.Wait()
	if diff := float64(l.Snapshot()[Compute] - 8*Second); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("compute = %v", l.Snapshot()[Compute])
	}
}
