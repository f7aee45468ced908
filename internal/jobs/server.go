package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/coverage"
	"repro/internal/obs"
)

// Handler returns the manager's HTTP/JSON API:
//
//	POST   /jobs           submit a Spec, 202 + job snapshot
//	GET    /jobs           list jobs in submission order (?status= filters)
//	GET    /jobs/{id}      one job with live progress
//	DELETE /jobs/{id}      cancel a queued or running job
//	GET    /jobs/{id}/plan the job's best plan (coverage/persist envelope)
//	GET    /healthz        liveness + queue/worker stats
//
// Error responses are JSON objects of the form {"error": "..."} with the
// usual status mapping (400 bad spec, 404 unknown job, 409 conflicting
// state, 503 queue full or shutting down).
//
// When sharding is enabled (ShardConfig.Enabled) the read endpoints are
// cluster-aware: GET /jobs/{id} and GET /jobs/{id}/plan resolve jobs
// submitted to any node sharing the store, adopting them on first
// touch, and the plan endpoint serves the best shard plan so far for
// jobs still in flight.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/plan", m.handlePlan)
	return mux
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The body is fully in memory; an encode failure here means the
	// connection is gone, which the caller cannot act on.
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
	case errors.Is(err, ErrSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrTerminal), errors.Is(err, ErrNoPlan):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (m *Manager) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"stats":  m.Stat(),
	})
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := obs.DecodeJSON(w, r, &spec); err != nil {
		writeError(w, errors.Join(ErrSpec, err))
		return
	}
	view, err := m.SubmitCtx(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	views := m.List()
	if f := r.URL.Query().Get("status"); f != "" {
		st := State(f)
		if !st.valid() {
			writeError(w, fmt.Errorf("%w: unknown status %q", ErrSpec, f))
			return
		}
		filtered := make([]View, 0, len(views))
		for _, v := range views {
			if v.State == st {
				filtered = append(filtered, v)
			}
		}
		views = filtered
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := m.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	view, err := m.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (m *Manager) handlePlan(w http.ResponseWriter, r *http.Request) {
	plan, err := m.Plan(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := coverage.WritePlan(w, plan); err != nil {
		// Headers are already out; the envelope validation runs on data
		// we validated when the plan was produced, so this is effectively
		// a broken connection.
		return
	}
}
