package main

import (
	"path/filepath"
	"time"

	"dpspark/internal/serve"
)

// probeSubmit times Server.Submit called in process, with the journal
// and without: admission with no HTTP around it. 200 small jobs are
// submitted back to back into a queue deep enough to take them all; they
// run in the background, as they do behind real admissions.
func probeSubmit(m map[string]float64, dir string) error {
	for metric, journal := range map[string]string{
		"serve.submit_direct_ms_p50":    filepath.Join(dir, "probe-journal"),
		"serve.submit_nojournal_ms_p50": "",
	} {
		srv, err := serve.New(serve.Config{MaxQueue: 256, JournalDir: journal, DrainGrace: time.Second})
		if err != nil {
			return err
		}
		if _, err := srv.Recover(); err != nil {
			return err
		}
		var durs []float64
		for i := 0; i < 200; i++ {
			spec := serve.JobSpec{Tenant: "probe", N: 64, Block: 16, Seed: int64(i % 16)}
			t0 := time.Now()
			if _, err := srv.Submit(spec); err != nil {
				srv.Drain()
				return err
			}
			durs = append(durs, time.Since(t0).Seconds())
		}
		srv.Drain()
		m[metric] = 1e3 * median(durs)
	}
	return nil
}
