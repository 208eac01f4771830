package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// call is the outcome of one request as the load generator sees it.
type call struct {
	Status int
	Body   []byte
	Err    error
}

// sample is one scheduled request. Times are seconds since the phase
// started. Latency is Done-Due: in an open loop a request is timed from
// when it was due, so the wait a stall imposes on later requests counts.
type sample struct {
	Slot   int
	Due    float64
	Sent   float64
	Done   float64
	Status int
	Body   []byte
	Unsent bool // the phase's drain deadline passed before a connection was free
}

func (s sample) latencyMs() float64 { return (s.Done - s.Due) * 1e3 }
func (s sample) lateMs() float64    { return (s.Sent - s.Due) * 1e3 }

// openLoop issues slots requests on a fixed-interval schedule: slot i
// is due at i/rate seconds. conns workers share the schedule; a worker
// that comes free takes the next slot and waits for its due time, or
// sends at once when that time has already passed. A stalled server
// therefore delays requests (and their latency says so) but never
// thins the load. Slots still unsent drain seconds after the last due
// time are recorded as Unsent, which callers count as failures.
func openLoop(rate float64, slots, conns int, drain time.Duration, do func(conn, slot int) call) []sample {
	samples := make([]sample, slots)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	deadline := start.Add(time.Duration(slots)*interval + drain)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= slots {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{Slot: i, Due: due.Sub(start).Seconds()}
				sent := time.Now()
				if sent.After(deadline) {
					s.Unsent = true
					samples[i] = s
					continue
				}
				r := do(c, i)
				s.Sent = sent.Sub(start).Seconds()
				s.Done = time.Since(start).Seconds()
				s.Status, s.Body = r.Status, r.Body
				if r.Err != nil {
					s.Status = 0
				}
				samples[i] = s
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients callers until d has passed or limit requests
// were issued (limit 0: no limit); each sends its next request only
// after the previous one completes, so a slower system receives less
// load. Request i (in issue order) is passed to do as its slot.
func closedLoop(d time.Duration, limit, clients int, do func(conn, slot int) call) []sample {
	var mu sync.Mutex
	var samples []sample
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					break
				}
				sent := time.Since(start).Seconds()
				r := do(c, i)
				s := sample{Slot: i, Due: sent, Sent: sent, Done: time.Since(start).Seconds(), Status: r.Status, Body: r.Body}
				if r.Err != nil {
					s.Status = 0
				}
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return samples
}

// httpConns is a set of single-connection HTTP clients against one
// nomad-serve: connection c is only ever used by load worker c, so
// "2 connections" means exactly two sockets.
type httpConns struct {
	base    string
	clients []*http.Client
}

func newHTTPConns(base string, n int) *httpConns {
	h := &httpConns{base: base}
	for i := 0; i < n; i++ {
		h.clients = append(h.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   5 * time.Second,
		})
	}
	return h
}

func (h *httpConns) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

func (h *httpConns) get(conn int, path string) call {
	resp, err := h.clients[conn].Get(h.base + path)
	if err != nil {
		return call{Err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return call{Status: resp.StatusCode, Body: body, Err: err}
}

func (h *httpConns) recommend(conn int, user int32) call {
	return h.get(conn, "/v1/recommend?user="+strconv.Itoa(int(user))+"&n=10")
}

// responseEpoch extracts the "epoch" field without decoding the whole
// body; the load generator reads it on every response of the swap
// workload and must stay cheap.
func responseEpoch(body []byte) (uint64, error) {
	const key = `"epoch":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no epoch in response")
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.ParseUint(string(rest[:j]), 10, 64)
}
