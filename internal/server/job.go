package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/obs"
)

// Event is one SSE message: a state transition or a progress sample.
type Event struct {
	// Type is "state" or "progress".
	Type string
	// Status accompanies state events.
	Status *Status
	// Progress accompanies progress events.
	Progress *Progress
}

// job is one tracked submission. The handle settles the job's fate in the
// pool; the record adds the server-side extras: result bytes, progress, and
// SSE subscribers.
type job struct {
	id     string
	req    Request
	handle *jobqueue.Handle // set before the record is published
	trace  *obs.Trace       // immutable after creation; its own lock guards spans

	mu        sync.Mutex
	state     jobqueue.State
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	data      []byte
	cacheHit  bool
	progress  *Progress
	subs      map[chan Event]struct{}
	closed    bool // no more events: terminal state broadcast
}

func newJob(id string, req Request, trace *obs.Trace) *job {
	return &job{
		id:        id,
		req:       req,
		trace:     trace,
		state:     jobqueue.Queued,
		submitted: time.Now(),
		subs:      map[chan Event]struct{}{},
	}
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = jobqueue.Running
	j.started = time.Now()
	submitted, started := j.submitted, j.started
	st := j.statusLocked()
	j.broadcastLocked(Event{Type: "state", Status: &st})
	j.mu.Unlock()
	if j.trace != nil {
		// The time between acceptance and a pool worker picking the job up
		// is the queue-wait phase.
		j.trace.Record(obs.Span{Name: "queue_wait", Start: submitted, End: started})
	}
}

func (j *job) setResult(data []byte, hit bool) {
	j.mu.Lock()
	j.data = data
	j.cacheHit = hit
	j.mu.Unlock()
}

// finish records the pool's verdict, broadcasts the terminal state, and
// closes every subscriber stream.
func (j *job) finish(st jobqueue.State, err error) {
	j.mu.Lock()
	j.state = st
	j.err = err
	j.finished = time.Now()
	s := j.statusLocked()
	j.broadcastLocked(Event{Type: "state", Status: &s})
	j.closed = true
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()
}

// onProgress is the machine OnSample hook: it runs inside the simulation's
// cycle loop, so it only stores the sample and does non-blocking sends.
func (j *job) onProgress(cycle, retired int64) {
	p := &Progress{Cycle: cycle, Retired: retired}
	j.mu.Lock()
	j.progress = p
	j.broadcastLocked(Event{Type: "progress", Progress: p})
	j.mu.Unlock()
}

// broadcastLocked fans an event out to subscribers without blocking: a slow
// consumer drops events rather than stalling the simulation.
func (j *job) broadcastLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an event stream, seeding it with the latest progress
// and the current state (progress first: the state is the most recent
// truth, and on a terminal job it must be the stream's last event). A
// terminal job yields a closed channel immediately after the replay.
func (j *job) subscribe() chan Event {
	ch := make(chan Event, 64)
	j.mu.Lock()
	if j.progress != nil {
		ch <- Event{Type: "progress", Progress: j.progress}
	}
	st := j.statusLocked()
	ch <- Event{Type: "state", Status: &st}
	if j.closed {
		close(ch)
	} else {
		j.subs[ch] = struct{}{}
	}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case jobqueue.Succeeded, jobqueue.Failed, jobqueue.Canceled:
		return true
	}
	return false
}

func (j *job) result() ([]byte, jobqueue.State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.data, j.state
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() Status {
	st := Status{
		ID:        j.id,
		Bench:     j.req.Bench,
		Policy:    j.req.Policy,
		SpawnMask: j.req.SpawnMask,
		State:     j.state.String(),
		CacheHit:  j.cacheHit,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Progress:  j.progress,
	}
	if j.trace != nil {
		st.TraceID = j.trace.ID()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// handleEvents streams a job's lifecycle as server-sent events. Each
// message is `event: state|progress` with a JSON data line. The stream ends
// when the job reaches a terminal state, the client disconnects, or the
// server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("response writer cannot stream"))
		return
	}
	s.m.sseStreams.Add(1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch := j.subscribe()
	defer j.unsubscribe(ch)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal state delivered
			}
			var payload any
			if ev.Status != nil {
				payload = ev.Status
			} else {
				payload = ev.Progress
			}
			data, err := json.Marshal(payload)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}
