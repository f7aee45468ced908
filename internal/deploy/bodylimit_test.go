package deploy_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/obs"
)

// TestBodyTooLarge: every JSON route refuses a body past
// obs.MaxRequestBody with 413 and a reason naming the limit. The body is
// rejected while decoding, so the deployment ID need not exist.
func TestBodyTooLarge(t *testing.T) {
	h := newRuntime(t, deploy.Config{}).Handler()
	for _, path := range []string{"/deployments", "/deployments/d1/advance", "/deployments/d1/observations"} {
		t.Run(path, func(t *testing.T) {
			body := append([]byte(`{"pois":[`), bytes.Repeat([]byte("1,"), obs.MaxRequestBody/2+1)...)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413; body %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), "request body exceeds") {
				t.Errorf("body %s does not name the limit", rec.Body)
			}
		})
	}
}
