package jobs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSubmitBodyTooLarge: a spec past obs.MaxRequestBody is refused with
// 413 and a reason naming the limit, before any job is queued.
func TestSubmitBodyTooLarge(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)
	body := append([]byte(`{"scenario":{"name":"`), bytes.Repeat([]byte("a"), obs.MaxRequestBody)...)
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "request body exceeds") {
		t.Errorf("body %s does not name the limit", rec.Body)
	}
	if n := len(m.List()); n != 0 {
		t.Errorf("%d jobs queued from an oversized request", n)
	}
}
