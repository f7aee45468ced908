package deploy

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Handler returns the runtime's HTTP/JSON API:
//
//	POST   /deployments                    create from a Spec, 201 + snapshot
//	GET    /deployments                    list all deployments
//	GET    /deployments/{id}               one deployment with live statistics
//	DELETE /deployments/{id}               stop a deployment
//	POST   /deployments/{id}/advance       draw N plan steps: {"steps": N}
//	POST   /deployments/{id}/observations  record observed PoIs: {"pois": [..]}
//	GET    /deployments/{id}/events        live event stream (SSE)
//
// Error responses are JSON objects {"error": "..."} with the usual status
// mapping (400 bad spec, 404 unknown deployment, 409 stopped, 503 full or
// shutting down).
func (rt *Runtime) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deployments", rt.handleCreate)
	mux.HandleFunc("GET /deployments", rt.handleList)
	mux.HandleFunc("GET /deployments/{id}", rt.handleGet)
	mux.HandleFunc("DELETE /deployments/{id}", rt.handleStop)
	mux.HandleFunc("POST /deployments/{id}/advance", rt.handleAdvance)
	mux.HandleFunc("POST /deployments/{id}/observations", rt.handleObserve)
	mux.HandleFunc("GET /deployments/{id}/events", rt.handleEvents)
	return mux
}

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
	case errors.Is(err, ErrSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrStopped):
		status = http.StatusConflict
	case errors.Is(err, ErrLimit), errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (rt *Runtime) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := obs.DecodeJSON(w, r, &spec); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrSpec, err))
		return
	}
	view, err := rt.Create(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/deployments/"+view.ID)
	writeJSON(w, http.StatusCreated, view)
}

func (rt *Runtime) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"deployments": rt.List()})
}

func (rt *Runtime) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := rt.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (rt *Runtime) handleStop(w http.ResponseWriter, r *http.Request) {
	view, err := rt.Stop(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (rt *Runtime) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Steps int `json:"steps"`
	}
	if err := obs.DecodeJSON(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrSpec, err))
		return
	}
	if req.Steps == 0 {
		req.Steps = 1
	}
	view, err := rt.Advance(r.PathValue("id"), req.Steps)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (rt *Runtime) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		PoIs []int `json:"pois"`
	}
	if err := obs.DecodeJSON(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrSpec, err))
		return
	}
	view, err := rt.Observe(r.PathValue("id"), req.PoIs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams the deployment's events as server-sent events:
// one `event: <type>` / `data: <json Event>` pair per emission. The
// stream ends when the deployment stops, the runtime shuts down, or the
// client disconnects.
func (rt *Runtime) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, cancel, err := rt.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()

	if _, ok := w.(http.Flusher); !ok {
		writeError(w, errors.New("deploy: response writer does not support streaming"))
		return
	}
	// The controller surfaces flush errors that a bare http.Flusher
	// swallows. A peer that vanished without the request context firing
	// (half-closed proxy hop, dead TCP session) shows up as a failed
	// write or flush; returning on the first one lets the deferred
	// cancel detach the subscriber instead of streaming into the void
	// until the deployment stops.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				return
			}
			blob, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, blob); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}
