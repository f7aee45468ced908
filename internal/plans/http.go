package plans

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// MaxBatch bounds the query count of one /plans:query request: enough
// for a fleet controller refreshing hundreds of deployments in one
// round trip, small enough that a single request cannot monopolize the
// job queue.
const MaxBatch = 256

// ErrRequest reports a malformed /plans request.
var ErrRequest = errors.New("plans: bad request")

// QueryRequest is the /plans:query body.
type QueryRequest struct {
	Queries []Query `json:"queries"`
}

// QueryResponse answers a /plans:query batch; Results[i] resolves
// Queries[i].
type QueryResponse struct {
	Results []Result `json:"results"`
}

// Handler returns the plan-library HTTP/JSON API:
//
//	POST /plans:query      batched lookup: N queries in, N results out
//	                       (hit / stale / scheduled / pending / miss /
//	                       error per item; one job per unique missed
//	                       fingerprint)
//	GET  /plans            library tier occupancy
//	GET  /plans/{fp}       one cached entry (canonical scenario, plan,
//	                       provenance)
//
// Error responses are JSON objects {"error": "..."}: 400 for malformed
// or oversized batches, 404 for unknown fingerprints.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /plans:query", s.handleQuery)
	mux.HandleFunc("GET /plans", s.handleStats)
	mux.HandleFunc("GET /plans/{fp}", s.handleGet)
	return mux
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a service error onto an HTTP status and JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case obs.TooLarge(err):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrRequest):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := obs.DecodeJSON(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrRequest, err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, fmt.Errorf("%w: empty batch", ErrRequest))
		return
	}
	if len(req.Queries) > MaxBatch {
		writeError(w, fmt.Errorf("%w: %d queries exceeds the batch cap of %d",
			ErrRequest, len(req.Queries), MaxBatch))
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Results: s.QueryBatch(r.Context(), req.Queries),
	})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.lib.Stat())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.lib.Get(r.PathValue("fp"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}
