package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// RequestIDHeader is the header the middleware echoes (or generates)
// on every response so clients can correlate their calls with the
// server's log trail.
const RequestIDHeader = "X-Request-ID"

// MaxRequestBody bounds every JSON request body the services decode, so
// one request cannot make a server buffer without limit before its
// content is validated. Plans with transition matrices of a few hundred
// PoIs are the largest bodies the services accept, and stay below it.
const MaxRequestBody = 16 << 20

// DecodeJSON decodes r's JSON body into v, reading at most MaxRequestBody
// bytes. Past the limit it fails with an error that names the limit and
// wraps *http.MaxBytesError; see TooLarge.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(v)
	if TooLarge(err) {
		return fmt.Errorf("request body exceeds the %d-byte limit: %w", MaxRequestBody, err)
	}
	return err
}

// TooLarge reports whether err comes from a request body past its
// http.MaxBytesReader limit, which the services answer with 413.
func TooLarge(err error) bool {
	return errors.As(err, new(*http.MaxBytesError))
}

// statusWriter records the status code and body size of a response.
// It deliberately implements http.Flusher by delegation: the deploy
// event stream type-asserts the ResponseWriter to a Flusher, and the
// middleware must not hide that capability.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware wraps next so every request gets an X-Request-ID response
// header (honoring an inbound one), a request-scoped context ID for log
// correlation, one structured log line (route, status, duration, bytes),
// and a latency histogram sample labeled by route pattern and status.
// logger and hist may be nil.
func Middleware(next http.Handler, logger *slog.Logger, hist *HistogramVec) http.Handler {
	if logger == nil {
		logger = NopLogger()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := WithRequestID(r.Context(), id)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)

		if sw.status == 0 {
			// Handler never wrote anything; net/http will send 200.
			sw.status = http.StatusOK
		}
		// r.Pattern is populated by ServeMux during routing, so it is
		// only available after the handler ran. Unrouted requests (404
		// from the mux) have no pattern.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := strconv.Itoa(sw.status)
		hist.With(route, status).Observe(elapsed.Seconds())

		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		logger.Log(ctx, level, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.Int64("bytes", sw.bytes),
		)
	})
}
