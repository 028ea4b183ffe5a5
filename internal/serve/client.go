package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client drives a daemon's job API (see Handler) over HTTP. It is the
// module's one client of that protocol: the dispatch pool and the load
// generator both go through it, each keeping its own retry and timeout
// policy. Every call is bounded by its ctx alone.
type Client struct {
	// Base is the daemon root, e.g. http://127.0.0.1:8321.
	Base string
	// HTTP carries the requests. nil = http.DefaultClient.
	HTTP *http.Client
}

// BusyError is a 429 from POST /jobs: the daemon shed the job at
// admission but is otherwise healthy. RetryAfter is its Retry-After hint,
// 0 when the header is absent or malformed.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("job shed with HTTP 429 (retry after %s)", e.RetryAfter)
}

// do sends one request. A response whose status is one of ok is returned
// for the caller to read and close; any other status is an error carrying
// the start of the body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, header http.Header, ok ...int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return resp, nil
		}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	discard(resp)
	return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, req.URL, resp.StatusCode, bytes.TrimSpace(msg))
}

// discard drains and closes a response body, so the connection can be
// reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Submit posts a job body (a JSON Spec) and returns the new job's ID. A
// non-empty tenant or class rides as the X-Rescue-Client or
// X-Rescue-Class header, never in the body, so tagging leaves the job's
// artifact identity alone. A 429 is a *BusyError.
func (c *Client) Submit(ctx context.Context, body []byte, tenant, class string) (string, error) {
	h := http.Header{"Content-Type": {"application/json"}}
	if tenant != "" {
		h.Set("X-Rescue-Client", tenant)
	}
	if class != "" {
		h.Set("X-Rescue-Class", class)
	}
	resp, err := c.do(ctx, http.MethodPost, "/jobs", body, h, http.StatusAccepted, http.StatusTooManyRequests)
	if err != nil {
		return "", err
	}
	defer discard(resp)
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
		return "", &BusyError{RetryAfter: time.Duration(max(secs, 0)) * time.Second}
	}
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || sn.ID == "" {
		return "", fmt.Errorf("POST %s/jobs: bad response: %v", c.Base, err)
	}
	return sn.ID, nil
}

// Follow reads job id's event stream to its end, handing every line to fn
// as it arrives, keepalives and dropped markers included, and returns the
// state of the done event. A stream that ends without a
// done event is an error: the job's outcome is unknown.
func (c *Client) Follow(ctx context.Context, id string, fn func(Event)) (State, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/events", nil, nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var state State
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return "", fmt.Errorf("events of job %s: %w", id, err)
		}
		fn(ev)
		if ev.Type == "done" {
			state = ev.State
		}
	}
	if state == "" {
		return "", fmt.Errorf("event stream of job %s ended without a done event", id)
	}
	return state, nil
}

// Snapshot returns job id's current status.
func (c *Client) Snapshot(ctx context.Context, id string) (Snapshot, error) {
	var sn Snapshot
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, nil, http.StatusOK)
	if err != nil {
		return sn, err
	}
	defer discard(resp)
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return sn, fmt.Errorf("snapshot of job %s: %w", id, err)
	}
	return sn, nil
}

// Result returns the report of job id, which must have succeeded.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Cancel asks the daemon to cancel job id. A job that already finished
// answers 409, which is not an error: there was nothing left to stop.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil, http.StatusOK, http.StatusConflict)
	if err == nil {
		discard(resp)
	}
	return err
}

// Healthy reports whether /healthz answers 200; a draining or unreachable
// daemon is not healthy.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, http.StatusOK)
	if err == nil {
		discard(resp)
	}
	return err == nil
}

// Metrics scrapes /metrics into a name → value map, skipping comment
// lines and any line whose value is not a number.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
