package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// opCounts is the failure accounting of one pass: every HTTP call and
// every study lifecycle is one attempted operation; a refusal (429, 503)
// or any other failure counts as missing whatever latency limit applies.
type opCounts struct {
	attempted atomic.Int64
	failed    atomic.Int64
	refused   atomic.Int64
}

// studyView is the part of hpod's study rendering the harness reads.
type studyView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Trials   int    `json:"trials"`
	Memoized int    `json:"memoized"`
}

// trialView is the part of a journaled trial the checks compare.
type trialView struct {
	Config  map[string]interface{} `json:"config"`
	BestAcc float64                `json:"best_acc"`
}

// client drives one hpod over real HTTP. It is safe for concurrent use;
// latencies land in the per-endpoint distributions and, when tracing is
// on, every call is a span.
type client struct {
	base string
	hc   *http.Client
	ops  *opCounts
	tr   *tracer

	lat *latencies
}

// latencies are the client-side spans per endpoint, in milliseconds. They
// belong to the pass, not to one client, so they survive the restart.
type latencies struct {
	create, start, list, trials, verify, scrape dist
	scrapeBytes                                 atomic.Int64
}

func newClient(addr string, conns int, ops *opCounts, lat *latencies, tr *tracer) *client {
	t := &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: 2 * conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: t}, ops: ops, lat: lat, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// open sends one request and classifies the outcome: a transport error or
// a non-2xx status counts as failed, 429 and 503 as refused. The caller
// owns the returned body. Every request of the harness goes through here.
func (c *client) open(ctx context.Context, name, method, path, token string, body []byte) (*http.Response, error) {
	c.ops.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		c.ops.failed.Add(1)
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.ops.failed.Add(1)
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(resp.Body) // best-effort error text
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.ops.refused.Add(1)
		} else {
			c.ops.failed.Add(1)
		}
		return nil, fmt.Errorf("%s: %w", name, &httpError{resp.StatusCode, string(bytes.TrimSpace(raw))})
	}
	return resp, nil
}

// call performs one short request inside a span and returns the answer's
// body; the latency lands in lat when lat is non-nil.
func (c *client) call(ctx context.Context, name, method, path, token string, body []byte, lat *dist, study string, parent int) ([]byte, error) {
	sp := c.tr.begin(name, study, parent)
	defer c.tr.end(sp)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	resp, err := c.open(ctx, name, method, path, token, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.ops.failed.Add(1)
		return nil, fmt.Errorf("%s: reading answer: %w", name, err)
	}
	if lat != nil {
		lat.add(float64(time.Since(t0)) / 1e6)
	}
	return raw, nil
}

// callJSON is call with the answer decoded into out.
func (c *client) callJSON(ctx context.Context, name, method, path, token string, body []byte, out interface{}, lat *dist, study string, parent int) error {
	raw, err := c.call(ctx, name, method, path, token, body, lat, study, parent)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		c.ops.failed.Add(1)
		return fmt.Errorf("%s: decoding answer: %w", name, err)
	}
	return nil
}

func (c *client) create(ctx context.Context, token string, spec []byte, parent int) (studyView, error) {
	var v studyView
	err := c.callJSON(ctx, "http.create", http.MethodPost, "/v1/studies", token, spec, &v, &c.lat.create, "", parent)
	return v, err
}

func (c *client) start(ctx context.Context, token, id string, parent int) error {
	_, err := c.call(ctx, "http.start", http.MethodPost, "/v1/studies/"+id+"/start", token, nil, &c.lat.start, id, parent)
	return err
}

func (c *client) get(ctx context.Context, token, id string, parent int) (studyView, error) {
	var v studyView
	err := c.callJSON(ctx, "http.get", http.MethodGet, "/v1/studies/"+id, token, nil, &v, nil, id, parent)
	return v, err
}

func (c *client) list(ctx context.Context, token string) ([]studyView, error) {
	var doc struct {
		Studies []studyView `json:"studies"`
	}
	err := c.callJSON(ctx, "http.list", http.MethodGet, "/v1/studies", token, nil, &doc, &c.lat.list, "", 0)
	return doc.Studies, err
}

func (c *client) trials(ctx context.Context, token, id string) ([]trialView, error) {
	var doc struct {
		Trials []trialView `json:"trials"`
	}
	err := c.callJSON(ctx, "http.trials", http.MethodGet, "/v1/studies/"+id+"/trials", token, nil, &doc, &c.lat.trials, id, 0)
	return doc.Trials, err
}

// verifyAnswer is hpod's POST /verify body.
type verifyAnswer struct {
	OK    bool   `json:"ok"`
	Error string `json:"error"`
}

func (c *client) verify(ctx context.Context, token, id string) (verifyAnswer, error) {
	var v verifyAnswer
	err := c.callJSON(ctx, "http.verify", http.MethodPost, "/v1/studies/"+id+"/verify", token, nil, &v, &c.lat.verify, id, 0)
	return v, err
}

// timelineRow is one trial of GET /timeline; times are nanoseconds since
// the study's first journal record.
type timelineRow struct {
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

type timelineDoc struct {
	Rows []timelineRow `json:"rows"`
}

func (c *client) timeline(ctx context.Context, token, id string) (timelineDoc, error) {
	var v timelineDoc
	err := c.callJSON(ctx, "http.timeline", http.MethodGet, "/v1/studies/"+id+"/timeline", token, nil, &v, nil, id, 0)
	return v, err
}

// scrape is GET /metrics, parsed.
func (c *client) scrape(ctx context.Context) (scrape, error) {
	raw, err := c.call(ctx, "http.metrics", http.MethodGet, "/metrics", "", nil, &c.lat.scrape, "", 0)
	if err != nil {
		return nil, err
	}
	c.lat.scrapeBytes.Store(int64(len(raw)))
	s, err := parseProm(bytes.NewReader(raw))
	if err != nil {
		c.ops.failed.Add(1)
	}
	return s, err
}

// events tails (or, with a terminal study, catches up on) a study's SSE
// stream from since, calling fn per event until the server ends the
// stream. The whole stream is one attempted operation.
func (c *client) events(ctx context.Context, token, id string, since uint64, parent int, fn func(sseEvent) error) error {
	sp := c.tr.begin("sse.stream", id, parent)
	defer c.tr.end(sp)
	ctx, cancel := context.WithTimeout(ctx, studyTimeout)
	defer cancel()
	resp, err := c.open(ctx, "sse", http.MethodGet, fmt.Sprintf("/v1/studies/%s/events?since=%d", id, since), token, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := readSSE(resp.Body, fn); err != nil {
		c.ops.failed.Add(1)
		return fmt.Errorf("sse: %w", err)
	}
	return nil
}
