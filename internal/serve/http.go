package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"nda/internal/tenant"
)

// NewHandler builds the service's HTTP API on top of a manager:
//
//	POST /v1/sweep     submit a performance sweep        (body: SweepRequest)
//	POST /v1/attack    submit a security-matrix run      (body: AttackRequest)
//	POST /v1/gadgets   submit a static gadget census     (body: GadgetsRequest)
//	POST /v1/warm      precompute a request set          (body: WarmRequest)
//	POST /v1/cell      evaluate one cell synchronously   (body: CellRequest)
//	GET  /v1/jobs      list jobs in submission order
//	GET  /v1/jobs/{id} job status and progress
//	GET  /v1/jobs/{id}/result  the result JSON (409 until done)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus-style counters
//
// Submissions return 202 with the job status; add ?wait=1 to block until
// the job finishes and receive the result body directly — the result
// bytes are identical whether the cells simulated or hit the cache. A
// full queue answers 429, a draining server 503.
//
// On tenanted deployments every job endpoint requires an API key, not
// just submissions: the listing shows only the caller's jobs, and
// status/stream/result/cancel answer 404 for another tenant's job IDs.
// Only /healthz and /metrics stay unauthenticated.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, func(req SweepRequest, o SubmitOpts) (*Job, error) { return m.SubmitSweep(req, o) })
	})
	mux.HandleFunc("POST /v1/attack", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, func(req AttackRequest, o SubmitOpts) (*Job, error) { return m.SubmitAttack(req, o) })
	})
	mux.HandleFunc("POST /v1/gadgets", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, func(req GadgetsRequest, o SubmitOpts) (*Job, error) { return m.SubmitGadgets(req, o) })
	})
	// Cache warming: precompute a request set so later submissions are
	// tier hits. An empty body warms the standard figure set.
	mux.HandleFunc("POST /v1/warm", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, func(req WarmRequest, o SubmitOpts) (*Job, error) { return m.SubmitWarm(req, o) })
	})
	// The fleet's work unit: one cell, evaluated synchronously through
	// this worker's cache, bypassing the job queue (coordinators bound
	// their own dispatch with per-worker windows).
	mux.HandleFunc("POST /v1/cell", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := authTenant(m, w, r); !ok {
			return
		}
		var req CellRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		c, err := req.cell()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		res, err := m.resolve(r.Context(), nil, &c)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The coordinator hung up (hedge lost, retry timeout): the
			// status is never seen, but close the exchange cleanly.
			writeError(w, http.StatusRequestTimeout, err.Error())
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		m.Metrics().CellsServed.Add(1)
		if res.enc == nil {
			writeJSON(w, http.StatusOK, res.val)
			return
		}
		writeEncoded(w, http.StatusOK, res.enc)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		caller, ok := authTenant(m, w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, m.JobsFor(caller))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobForRequest(m, w, r)
		if !ok {
			return
		}
		if s := r.URL.Query().Get("stream"); s == "1" || s == "true" {
			m.serveStream(w, r, j)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobForRequest(m, w, r)
		if !ok {
			return
		}
		writeResult(w, j)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobForRequest(m, w, r)
		if !ok {
			return
		}
		// A job the registry forgot since the lookup had finished: nothing to stop.
		m.Cancel(j.ID())
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = fmt.Fprint(w, m.RenderMetrics())
	})
	return mux
}

// maxBodyBytes bounds request bodies; every request type is a small list
// of names and knobs.
const maxBodyBytes = 1 << 20

// authTenant resolves the request's tenant from its API key
// (Authorization: Bearer or X-API-Key). On a single-tenant deployment the
// implicit local tenant is used and no key is required. Writes the 401
// itself and reports false when authentication fails.
func authTenant(m *Manager, w http.ResponseWriter, r *http.Request) (string, bool) {
	if !m.Tenanted() {
		return "", true
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
			key = strings.TrimPrefix(ah, "Bearer ")
		}
	}
	if key == "" {
		writeError(w, http.StatusUnauthorized, "missing API key: pass Authorization: Bearer <key> or X-API-Key")
		return "", false
	}
	name, ok := m.TenantForKey(key)
	if !ok {
		writeError(w, http.StatusUnauthorized, "unknown API key")
		return "", false
	}
	return name, true
}

// jobForRequest authenticates the caller and resolves the {id} path value
// to a job the caller may see. On tenanted deployments a job owned by a
// different tenant answers 404 — indistinguishable from an ID that was
// never issued, so the sequential job namespace leaks nothing across
// tenants. Writes the error response itself and reports false on failure.
func jobForRequest(m *Manager, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	caller, ok := authTenant(m, w, r)
	if !ok {
		return nil, false
	}
	j, ok := m.Get(r.PathValue("id"))
	if !ok || (caller != "" && j.tenant != caller) {
		writeError(w, http.StatusNotFound, "unknown job")
		return nil, false
	}
	return j, true
}

// submit decodes a typed request body, enqueues it, and answers 202 (or,
// with ?wait=1, blocks and answers with the result itself).
func submit[R any](m *Manager, w http.ResponseWriter, r *http.Request, enqueue func(R, SubmitOpts) (*Job, error)) {
	tenantName, ok := authTenant(m, w, r)
	if !ok {
		return
	}
	query := r.URL.Query()
	wait, className := query.Get("wait"), query.Get("class")
	waiting := wait == "1" || wait == "true"
	// Scheduling class: explicit ?class= wins; otherwise blocking
	// submissions default to interactive, fire-and-forget ones to batch.
	class, err := tenant.ParseClass(className)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if className == "" && waiting {
		class = tenant.Interactive
	}
	var req R
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	// An empty body is a valid request: every field has a default.
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := enqueue(req, SubmitOpts{Tenant: tenantName, Class: class})
	var quotaErr *tenant.QuotaError
	switch {
	case errors.As(err, &quotaErr):
		// Quota exhaustion tells the client exactly when to come back.
		secs := int(quotaErr.RetryAfter.Seconds()) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if waiting {
		if err := j.Wait(r.Context()); err != nil {
			// The client went away; the job keeps running for later polls.
			writeError(w, http.StatusRequestTimeout, "wait aborted: "+err.Error())
			return
		}
		writeResult(w, j)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// writeResult answers with a finished job's raw result bytes. The bytes
// are stored marshalled once at completion, so two jobs for identical
// requests — one simulated, one cache-served — answer byte-identically.
func writeResult(w http.ResponseWriter, j *Job) {
	st := j.Status()
	switch st.State {
	case JobDone:
		res, _ := j.Result()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, st.Error)
	case JobCancelled:
		writeError(w, http.StatusConflict, "job cancelled: "+st.Error)
	default:
		writeJSON(w, http.StatusConflict, st)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeEncoded(w, status, buf)
}

// writeEncoded answers with a value's JSON encoding and a newline.
func writeEncoded(w http.ResponseWriter, status int, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	_, _ = w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
