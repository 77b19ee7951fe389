package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/tree"
)

// TestAdminReadiness pins the daemon's one readiness gate: adminMux's
// /readyz is 503 before Start (recovery has not run), 200 once Start
// has recovered and the wire listener is up, and 503 after Shutdown.
// /healthz is liveness: green until the engine is closed.
func TestAdminReadiness(t *testing.T) {
	srv, err := New(Config{
		Addr:     "127.0.0.1:0",
		Trees:    []*tree.Tree{tree.CompleteKary(15, 2)},
		Alpha:    4,
		Capacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.adminMux()
	check := func(stage string, wantReady, wantHealth int) {
		t.Helper()
		for path, want := range map[string]int{"/readyz": wantReady, "/healthz": wantHealth} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != want {
				t.Fatalf("%s: %s = %d, want %d", stage, path, rec.Code, want)
			}
		}
	}
	check("before Start", http.StatusServiceUnavailable, http.StatusOK)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	check("started", http.StatusOK, http.StatusOK)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("after Shutdown", http.StatusServiceUnavailable, http.StatusServiceUnavailable)
}
