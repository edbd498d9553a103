package svc

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzQueries are the query parameters a fuzzed submission may carry:
// bit k of the fuzzed selector adds entry k.
var fuzzQueries = []string{"procs=3", "speeds=2,1,0.5", "seed=7", "full=1", "execute=1", "format=stg"}

// FuzzScheduleHandler sends arbitrary bodies, under every combination of
// fuzzQueries, to the /schedule handler: every answer must be 2xx or
// 4xx, never 5xx, and no job may panic. The server's limits are small so
// that each input stays cheap.
func FuzzScheduleHandler(f *testing.F) {
	s := New(Config{Workers: 1, QueueCap: 4, CacheCap: 16, MaxTasks: 64, MaxEdges: 256, MaxProcs: 16})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	h := s.Handler()
	for _, seed := range []struct {
		body string
		sel  uint8
	}{
		{textBody("chain", 4), 0},
		{textBody("chain", 6), 0b011111},
		{textBody("big", 65), 0},
		{stgBody(5), 0b100000},
		{stgBody(5), 0b111111},
		{"graph g\ntask 0 1.5 _\ntask 1 0.25 a\nedge 0 1 2\n", 0b011011},
		{"task 0 1e-65\ntask 1 -0\nedge 0 1 +7\n", 0b010000},
		{"task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n", 0},
		{"", 0},
		{"\xff\xfe", 0b100000},
	} {
		f.Add([]byte(seed.body), seed.sel)
	}
	f.Fuzz(func(t *testing.T, body []byte, sel uint8) {
		var q []string
		for k, p := range fuzzQueries {
			if sel>>k&1 == 1 {
				q = append(q, p)
			}
		}
		req := httptest.NewRequest("POST", "/schedule?"+strings.Join(q, "&"), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if c := rec.Code / 100; c != 2 && c != 4 {
			t.Fatalf("status %d for %q with query %q: %s", rec.Code, body, req.URL.RawQuery, rec.Body)
		}
		if n := s.nPanics.Load(); n != 0 {
			t.Fatalf("%d jobs panicked; last input %q with query %q", n, body, req.URL.RawQuery)
		}
	})
}
