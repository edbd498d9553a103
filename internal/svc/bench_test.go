package svc

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flb/internal/workload"
)

// BenchmarkServeMiss times one cold submission through the handler: an
// LU graph of V≈2000 parsed, scheduled by FLB at P=8 and answered as
// JSON, on one worker with the cache off, so every iteration is a miss.
func BenchmarkServeMiss(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Errorf("drain: %v", err)
		}
	})
	g, err := workload.Instance("lu", 2000, 1, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	body := g.TextString()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/schedule?procs=8", strings.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
