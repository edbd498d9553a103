//go:build go1.24

package svc

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"flb/internal/graph"
)

// TestIdleWorkerRetainsNoGraph: once a job is answered and cached, an
// idle worker pins nothing of it — a collection frees the job's graph,
// with or without execution.
func TestIdleWorkerRetainsNoGraph(t *testing.T) {
	for _, query := range []string{"?procs=4", "?procs=4&execute=1"} {
		var mu sync.Mutex
		var wp weak.Pointer[graph.Graph]
		s := New(Config{Workers: 1, CacheCap: 8, testHook: func(j *job) {
			mu.Lock()
			wp = weak.Make(j.g)
			mu.Unlock()
		}})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/schedule"+query, strings.NewReader(textBody("idle", 200))))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d, body %s", query, rec.Code, rec.Body)
		}
		waitFor(t, "the worker to go idle", func() bool { return s.inflight.Load() == 0 })
		mu.Lock()
		p := wp
		mu.Unlock()
		freed := false
		for i := 0; i < 5 && !freed; i++ {
			runtime.GC()
			freed = p.Value() == nil
		}
		if !freed {
			t.Errorf("%s: an idle worker keeps its last job's graph alive", query)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		cancel()
	}
}
