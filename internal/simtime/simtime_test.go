package simtime

import (
	"strings"
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
	l.AddBytes(Network, 1000)
	l.CountTasks(2)
	l.CountStage()

	if l.Time(Compute) != 5*Second {
		t.Fatalf("compute = %v", l.Time(Compute))
	}
	if l.Total() != 6*Second {
		t.Fatalf("total = %v", l.Total())
	}
	if l.Bytes(Network) != 1000 {
		t.Fatalf("bytes = %d", l.Bytes(Network))
	}
	if l.Tasks() != 2 || l.Stages() != 1 {
		t.Fatalf("tasks/stages = %d/%d", l.Tasks(), l.Stages())
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
				l.CountTasks(1)
			}
		}()
	}
	wg.Wait()
	if l.Tasks() != 8000 {
		t.Fatalf("tasks = %d", l.Tasks())
	}
	if diff := float64(l.Time(Compute) - 8*Second); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("compute = %v", l.Time(Compute))
	}
}

func TestLedgerString(t *testing.T) {
	l := NewLedger()
	l.Add(Compute, Second)
	l.Add(Network, Second)
	s := l.String()
	if !strings.Contains(s, "compute=") || !strings.Contains(s, "network=") {
		t.Fatalf("String = %q", s)
	}
}
