package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpspark/internal/obs"
	"dpspark/internal/store"
)

// frameRecords marshals records into journal bytes without a journal
// handle — the fixture builder for replay tests.
func frameRecords(t testing.TB, recs ...journalRecord) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = store.AppendFrame(buf, payload)
	}
	return buf
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Tenant: "alice", N: 64, Block: 32}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	in := []journalRecord{
		{Type: recAdmitted, Job: "job-1", Seq: 1, Spec: &spec},
		{Type: recDispatched, Job: "job-1", Attempt: 1},
		{Type: "checkpointed", Job: "job-1"},
		{Type: recTerminal, Job: "job-1", State: StateDone, Checksum: "00ff00ff00ff00ff", Modelled: 1.25},
	}
	for _, rec := range in {
		if rec.Type == "checkpointed" {
			// A frame exactly as servers before the record audit wrote it:
			// the type is retired, old journals still carry it.
			legacy := []byte(`{"type":"checkpointed","job":"job-1","iteration":1}`)
			if _, err := jl.f.Write(store.AppendFrame(nil, legacy)); err != nil {
				t.Fatal(err)
			}
			jl.records++
			continue
		}
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if jl.records != len(in) {
		t.Fatalf("journal len %d, want %d", jl.records, len(in))
	}
	jl.close()

	out, dropped, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(out) != len(in) {
		t.Fatalf("replay: %d records, %d dropped; want %d records, 0 dropped", len(out), dropped, len(in))
	}
	if out[0].Spec == nil || out[0].Spec.Tenant != "alice" || out[0].Seq != 1 {
		t.Fatalf("admitted record lost its spec: %+v", out[0])
	}
	if out[3].State != StateDone || out[3].Checksum != "00ff00ff00ff00ff" {
		t.Fatalf("terminal record mangled: %+v", out[3])
	}
	if !reflect.DeepEqual(out[2], in[2]) {
		t.Fatalf("retired record type must still decode: %+v", out[2])
	}
	// Recovery skips the retired type and lands the job where its
	// terminal record says.
	s, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.Status("job-1"); !ok || st.State != StateDone || st.Checksum != "00ff00ff00ff00ff" {
		t.Fatalf("recovered job-1 = %+v", st)
	}
}

func TestJournalTornTailReplay(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := jl.append(journalRecord{Type: recDispatched, Job: "job-1", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL mid-write: chop 7 bytes off the last frame.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn-tail replay kept %d records, want 4", len(recs))
	}
	if dropped == 0 {
		t.Fatal("torn-tail replay reported 0 dropped bytes")
	}
	if recs[3].Attempt != 4 {
		t.Fatalf("last intact record attempt %d, want 4", recs[3].Attempt)
	}
}

func TestJournalCompactAtomicAndAppendable(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := jl.append(journalRecord{Type: recDispatched, Job: "job-1", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []journalRecord{
		{Type: recAdmitted, Job: "job-1", Seq: 1, Spec: &JobSpec{Tenant: "alice", Bench: "fw", Driver: "im", N: 64, Block: 32}},
		{Type: recTerminal, Job: "job-1", State: StateDone, Checksum: "1"},
	}
	if err := jl.compact(snap); err != nil {
		t.Fatal(err)
	}
	if jl.records != len(snap) {
		t.Fatalf("post-compact len %d, want %d", jl.records, len(snap))
	}
	// The handle must still be appendable after the rename swap.
	if err := jl.append(journalRecord{Type: recDispatched, Job: "job-2", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	// Compacting a closed journal must refuse, not resurrect the file.
	if err := jl.compact(snap); err == nil {
		t.Fatal("compact on a closed journal succeeded")
	}
	recs, dropped, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(recs) != 3 {
		t.Fatalf("replay after compact+append: %d records, %d dropped; want 3, 0", len(recs), dropped)
	}
	if recs[0].Type != recAdmitted || recs[2].Job != "job-2" {
		t.Fatalf("compacted journal out of order: %+v", recs)
	}
	// No temp litter left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-journal-*"))
	if len(matches) != 0 {
		t.Fatalf("compact left temp files: %v", matches)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, dropped, err := readJournal(t.TempDir())
	if err != nil || len(recs) != 0 || dropped != 0 {
		t.Fatalf("missing journal: recs=%d dropped=%d err=%v, want empty", len(recs), dropped, err)
	}
}

// FuzzJournalReplay hammers decodeJournal with corrupted journals. The
// invariants under ANY input: no panic; dropped stays within bounds;
// replaying the kept prefix is lossless and idempotent; and a fresh
// record appended to the kept prefix replays — i.e. recovery after a
// torn tail leaves a journal the server can keep appending to.
func FuzzJournalReplay(f *testing.F) {
	spec := JobSpec{Tenant: "alice", N: 64, Block: 32}
	if err := spec.validate(); err != nil {
		f.Fatal(err)
	}
	good := frameRecords(f,
		journalRecord{Type: recAdmitted, Job: "job-1", Seq: 1, Spec: &spec},
		journalRecord{Type: recDispatched, Job: "job-1", Attempt: 1},
		journalRecord{Type: recTerminal, Job: "job-1", State: StateDone, Checksum: "00ff00ff00ff00ff"},
	)
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40 // bit rot mid-journal
	f.Add(flip)
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{})
	// A structurally valid frame whose payload is not a record.
	f.Add(store.AppendFrame(nil, []byte(`{"zebra":true}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dropped := decodeJournal(data)
		if dropped < 0 || dropped > len(data) {
			t.Fatalf("dropped %d outside [0, %d]", dropped, len(data))
		}
		kept := data[:len(data)-dropped]
		recs2, dropped2 := decodeJournal(kept)
		if dropped2 != 0 {
			t.Fatalf("replaying the kept prefix dropped %d more bytes — trim not idempotent", dropped2)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("replaying the kept prefix yielded %d records, want %d", len(recs2), len(recs))
		}
		// The journal must remain appendable after recovery truncates to
		// the kept prefix.
		extra, err := json.Marshal(journalRecord{Type: recTerminal, Job: "job-x", State: StateCancelled})
		if err != nil {
			t.Fatal(err)
		}
		ext := store.AppendFrame(append([]byte(nil), kept...), extra)
		recs3, dropped3 := decodeJournal(ext)
		if dropped3 != 0 || len(recs3) != len(recs)+1 {
			t.Fatalf("append after trim: %d records, %d dropped; want %d, 0", len(recs3), dropped3, len(recs)+1)
		}
		if got := recs3[len(recs3)-1]; got.Type != recTerminal || got.Job != "job-x" {
			t.Fatalf("appended record mangled: %+v", got)
		}
	})
}
