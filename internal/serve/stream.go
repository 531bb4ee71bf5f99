package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// SSE progress streaming: GET /v1/jobs/{id}?stream=1 pushes a `progress`
// event per observable status change (cell completions, state
// transitions) instead of making clients re-poll the whole status blob.
//
// Backpressure contract: the sweep fold path never blocks on a consumer.
// A job change only closes the channel its watchers took (Job.update in
// serve.go); a consumer that is slow to come back simply coalesces — the
// next event it renders carries the latest status, versions in between
// are skipped. Event ids are the job's status version, so a dropped
// connection resumes with Last-Event-ID and receives only what changed
// since.

// DefaultStreamHeartbeat is the keep-alive comment interval: frequent
// enough to hold typical proxy idle timeouts open across long simulation
// gaps.
const DefaultStreamHeartbeat = 15 * time.Second

// serveStream writes the job's status event stream until the job reaches
// a terminal state or the client goes away.
func (m *Manager) serveStream(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	// Last-Event-ID resume: events at or below the client's last seen
	// version are already rendered on its side; skip straight past them.
	var lastSent int64 = -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			lastSent = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	tick := time.NewTicker(DefaultStreamHeartbeat)
	defer tick.Stop()
	for {
		st, ver, changed := j.watch()
		if ver > lastSent {
			b, _ := json.Marshal(st) // Status has no unmarshalable fields
			if _, err := fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", ver, b); err != nil {
				return
			}
			lastSent = ver
		}
		if st.State != JobQueued && st.State != JobRunning {
			// An explicit done event after the final status, so clients
			// can stop without inspecting payloads.
			_, _ = fmt.Fprintf(w, "id: %d\nevent: done\ndata: {\"state\":%q}\n\n", ver, st.State)
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-changed:
		case <-tick.C:
			// Comment heartbeat: ignored by EventSource parsers, keeps
			// idle connections from being reaped mid-simulation.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
