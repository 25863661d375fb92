package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// reply holds the response fields the benchmark checks or counts.
type reply struct {
	Reachable       bool          `json:"reachable"`
	Seq             int64         `json:"seq"`
	Cached          bool          `json:"cached"`
	Deduplicated    bool          `json:"deduplicated"`
	SuccessorCounts map[int32]int `json:"successor_counts"`
	Shards          int           `json:"shards"`
	Retries         int           `json:"retries"`
	Hedges          int           `json:"hedges"`
	Metrics         struct {
		TotalIO int64 `json:"total_io"`
	} `json:"metrics"`
}

// call sends one request and decodes a 200 reply into rep.
func call(hc *http.Client, method, url string, body []byte, rep *reply) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	*rep = reply{}
	if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return nil
}

func reachURL(base string, src, dst int32) string {
	b := make([]byte, 0, len(base)+40)
	b = append(b, base...)
	b = append(b, "/v1/reach?src="...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, "&dst="...)
	b = strconv.AppendInt(b, int64(dst), 10)
	return string(b)
}

// Phases of a run, by send time (closed loop) or due time (open loop).
const (
	phaseWarm    = iota // not measured
	phaseMeasure        // end-to-end metrics
	phaseTraced         // the same traffic with client spans recorded
	phaseDone
)

// timeline maps run time to phases: warm-up, then the measured window.
// In traced runs the window alternates between plain and traced slices,
// so drift in the host's speed weighs on both alike.
type timeline struct {
	warm, window time.Duration
	slice        time.Duration // 0: the whole window is plain
}

func (tl timeline) phase(t time.Duration) int {
	switch {
	case t < tl.warm:
		return phaseWarm
	case t >= tl.total():
		return phaseDone
	case tl.slice > 0 && ((t-tl.warm)/tl.slice)%2 == 1:
		return phaseTraced
	}
	return phaseMeasure
}

func (tl timeline) total() time.Duration { return tl.warm + tl.window }

// sample is one completed or failed request.
type sample struct {
	kind  opKind
	phase int8
	ok    bool
	// unsent marks a request the generator gave up on, because the run
	// was already 10 s past the end of its schedule.
	unsent bool
	at     time.Duration // send time (closed loop) or due time (open loop) since the start
	lat    time.Duration // from at to the reply
	late   time.Duration // generator lateness, see runOpen and runClosed
}

// sender executes one op and reports whether it succeeded with a correct
// answer. It is called concurrently from the client goroutines.
type sender func(o op) bool

// runOpen sends the schedule from senders goroutines. Each request is
// timed from its due time, so a stall also charges the requests queued
// behind it. Generator lateness is how long after its due time a request
// went out although a sender was free: the generator's own falling
// behind, apart from waiting for a busy connection.
func runOpen(ops []op, senders int, tl timeline, t0 time.Time, send sender, rec *recorder) []sample {
	out := make([]sample, len(ops))
	limit := tl.total() + 10*time.Second
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				ph := tl.phase(o.due)
				if wait := o.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(t0)
				if sent > limit {
					out[i] = sample{kind: o.kind, phase: int8(ph), at: o.due, unsent: true}
					continue
				}
				ready := o.due
				if free > ready {
					ready = free
				}
				ok := send(o)
				done := time.Since(t0)
				out[i] = sample{kind: o.kind, phase: int8(ph), ok: ok, at: o.due, lat: done - o.due, late: sent - ready}
				if ph == phaseTraced {
					rec.add(kindName[o.kind], 0, int64(i), t0.Add(sent), done-sent, 1)
				}
				free = done
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed runs clients goroutines that each send their next request as
// soon as the previous one completes, until the timeline ends. Generator
// lateness is the gap between one reply and the next send.
func runClosed(ops []op, clients int, tl timeline, t0 time.Time, send sender, rec *recorder) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			prev := time.Duration(-1)
			for {
				sent := time.Since(t0)
				ph := tl.phase(sent)
				if ph == phaseDone {
					break
				}
				i := int(next.Add(1)-1) % len(ops)
				o := ops[i]
				ok := send(o)
				done := time.Since(t0)
				s := sample{kind: o.kind, phase: int8(ph), ok: ok, at: sent, lat: done - sent}
				if prev >= 0 {
					s.late = sent - prev
				}
				mine = append(mine, s)
				if ph == phaseTraced {
					rec.add(kindName[o.kind], 0, int64(i), t0.Add(sent), done-sent, 1)
				}
				prev = time.Since(t0)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

var kindName = map[opKind]string{opReach: "client.reach", opQuery: "client.query", opArc: "client.arc"}
