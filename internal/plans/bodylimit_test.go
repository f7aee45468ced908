package plans

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestQueryBodyTooLarge: a query batch past obs.MaxRequestBody is refused
// with 413 and a reason naming the limit.
func TestQueryBodyTooLarge(t *testing.T) {
	s := newSvc(t, newLib(t, Config{}), newFakeJobs())
	body := append([]byte(`{"queries":[{"scenario":{"name":"`), bytes.Repeat([]byte("a"), obs.MaxRequestBody)...)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plans:query", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "request body exceeds") {
		t.Errorf("body %s does not name the limit", rec.Body)
	}
}
