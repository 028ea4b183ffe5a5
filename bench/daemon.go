package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rescuedBin is the daemon binary bench/run.sh builds from this checkout.
const rescuedBin = ".bench_build/rescued"

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every mainstream Linux architecture.
const clockTicks = 100

// daemon is one rescued process started with its default scheduling
// flags (-slots 1 -workers 0) on a free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error
	base   string
	// setup is exec to the first healthy /healthz answer.
	setup time.Duration
}

// firstLine hands the first line written to it to ch and discards the rest.
type firstLine struct {
	buf  []byte
	sent bool
	ch   chan string
}

func (w *firstLine) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.ch <- string(w.buf[:i])
			w.sent, w.buf = true, nil
		}
	}
	return len(p), nil
}

// startDaemon launches rescued and waits until it answers /healthz. The
// process dies with the bench if the bench is killed.
func startDaemon(ctx context.Context, hc *http.Client) (*daemon, error) {
	t0 := time.Now()
	lines := &firstLine{ch: make(chan string, 1)}
	cmd := exec.Command(rescuedBin, "-addr", "127.0.0.1:0", "-quiet")
	cmd.Stdout = lines
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rescued: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	var line string
	select {
	case line = <-lines.ch:
	case err := <-d.exited:
		return nil, fmt.Errorf("rescued exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("rescued did not listen within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	addr, ok := strings.CutPrefix(line, "listening on ")
	if !ok {
		d.stop()
		return nil, fmt.Errorf("rescued: unexpected first line %q", line)
	}
	d.base = "http://" + addr
	if _, err := get(ctx, hc, d.base+"/healthz"); err != nil {
		d.stop()
		return nil, err
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that hangs is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB is the daemon's peak resident set (VmHWM) so far, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times %q %q", f[11], f[12])
	}
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is this process's user plus system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// newClient returns an HTTP client that opens at most conns connections
// to any one daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// scrape reads the daemon's /metrics into name -> value.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	b, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// jobRun is one job's life as a client sees it (t0 .. end, client clock)
// and as the daemon stamped it on the event stream (daemon clock; both
// run on this host).
type jobRun struct {
	t0, submitted, end              time.Time
	queuedAt, startedAt, finishedAt time.Time
	rejected                        bool // 429 at submit
	state                           string
	out                             []byte
}

func (j *jobRun) latency() float64 { return j.end.Sub(j.t0).Seconds() }

// runJob submits spec, follows the job's NDJSON event stream until it is
// done, and fetches the report: the full submit-to-result path a client
// of rescued takes.
func runJob(ctx context.Context, hc *http.Client, base string, spec []byte) (*jobRun, error) {
	j := &jobRun{t0: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	var sn struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sn)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	j.submitted = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		j.rejected, j.state, j.end = true, "rejected", j.submitted
		return j, nil
	case resp.StatusCode != http.StatusAccepted:
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case derr != nil || sn.ID == "":
		return nil, fmt.Errorf("submit: bad response: %v", derr)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+sn.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err = hc.Do(req)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type  string    `json:"type"`
			Time  time.Time `json:"time"`
			State string    `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Type {
		case "queued":
			j.queuedAt = ev.Time
		case "started":
			j.startedAt = ev.Time
		case "done":
			j.finishedAt, j.state = ev.Time, ev.State
		}
	}
	serr := sc.Err()
	resp.Body.Close()
	if serr != nil {
		return nil, fmt.Errorf("events %s: %w", sn.ID, serr)
	}
	if j.state == "" {
		return nil, fmt.Errorf("events %s: stream ended without a done event", sn.ID)
	}
	if j.state == "succeeded" {
		if j.out, err = get(ctx, hc, base+"/jobs/"+sn.ID+"/result"); err != nil {
			return nil, err
		}
	}
	j.end = time.Now()
	return j, nil
}
