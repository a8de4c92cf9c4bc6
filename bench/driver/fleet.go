package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process of a workload's fleet.
type proc struct {
	name string
	args []string // full argv after the binary, for restarts
	bin  string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has ended
}

// freeAddrs asks the kernel for n unused loopback ports. All n
// listeners are open at once, so the ports differ: asked one at a
// time, the kernel now and then hands the port just released out again,
// and two servers of a fleet would fight over it.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// start launches the process with stdout/stderr appended to logPath.
// The child is killed with the driver (Pdeathsig), so no server
// outlives a crashed benchmark.
func (p *proc) start(logPath string) error {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.log, p.done = cmd, f, make(chan struct{})
	go func() {
		_ = cmd.Wait() // how a server exits carries nothing: it is always killed
		close(p.done)
	}()
	return nil
}

// kill SIGKILLs the process and waits until it has ended.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
	p.log.Close()
	p.cmd = nil
}

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicksPerSecond = 100

// cpuMs reads the process's consumed CPU time (user + system).
func (p *proc) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc stat line %q", stat)
	}
	return (ut + st) * 1000 / clockTicksPerSecond, nil
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func (p *proc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status of %s", p.name)
}

// fleet is the set of servers one workload runs against.
type fleet struct {
	nodes      []*proc // quarryd processes (requirements, /api/run, stats)
	router     *proc   // quarryrouter, when sharded
	routerAddr string  // reserved together with the nodes' addresses
	dirs       []string
	client     *http.Client
}

// entry is the base URL cube queries go to.
func (f *fleet) entry() string {
	if f.router != nil {
		return f.router.url
	}
	return f.nodes[0].url
}

func (f *fleet) procs() []*proc {
	out := append([]*proc(nil), f.nodes...)
	if f.router != nil {
		out = append(out, f.router)
	}
	return out
}

// stop kills every process, waits for each, and removes the data
// directories.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.kill()
	}
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// sum adds one per-process reading over the whole fleet.
func (f *fleet) sum(read func(*proc) (float64, error)) (float64, error) {
	var sum float64
	for _, p := range f.procs() {
		v, err := read(p)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (f *fleet) cpuMs() (float64, error)     { return f.sum((*proc).cpuMs) }
func (f *fleet) rssPeakMB() (float64, error) { return f.sum((*proc).rssPeakMB) }

// diskMB sums the bytes of regular files under the fleet's -data-dirs.
func (f *fleet) diskMB() (float64, error) {
	var bytes int64
	for _, d := range f.dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(bytes) / (1 << 20), nil
}

// do sends one request and returns status, headers and the full body.
func do(ctx context.Context, c *http.Client, method, url, contentType string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// getJSON GETs url and decodes the 200 answer into out.
func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	status, _, body, err := do(ctx, c, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, firstLine(body))
	}
	return json.Unmarshal(body, out)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 300 {
		s = s[:300]
	}
	return s
}

// errGone marks a wait that can no longer succeed.
var errGone = errors.New("process gone")

// waitUntil polls cond every few milliseconds until it holds, fails
// with errGone, or ctx ends.
func waitUntil(ctx context.Context, what string, cond func() (bool, error)) error {
	var last error
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if errors.Is(err, errGone) {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if err != nil {
			last = err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w (last error: %v)", what, ctx.Err(), last)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// health is the part of GET /api/health the benchmark reads.
type health struct {
	Status string `json:"status"`
}

// olapStats is the part of GET /api/olap/stats the benchmark reads.
type olapStats struct {
	CacheHits        int64  `json:"cache_hits"`
	CacheMisses      int64  `json:"cache_misses"`
	WarehouseVersion uint64 `json:"warehouse_version"`
	MatAgg           *struct {
		Hits               int64  `json:"hits"`
		Rewrites           int64  `json:"rewrites"`
		Misses             int64  `json:"misses"`
		LastRefreshVersion uint64 `json:"last_refresh_version"`
		DimCacheHits       int64  `json:"dim_cache_hits"`
		DimCacheMisses     int64  `json:"dim_cache_misses"`
	} `json:"matagg"`
}

// runAnswer is the part of the POST /api/run answer the benchmark
// reads.
type runAnswer struct {
	RowsProcessed int64 `json:"rows_processed"`
	ElapsedMicros int64 `json:"elapsed_us"`
}

// waitHealthy waits until p answers /api/health with status ok.
func (f *fleet) waitHealthy(ctx context.Context, p *proc) error {
	return waitUntil(ctx, p.name+" health", func() (bool, error) {
		select {
		case <-p.done:
			return false, fmt.Errorf("%w: %s exited; see its log", errGone, p.name)
		default:
		}
		var h health
		if err := getJSON(ctx, f.client, p.url+"/api/health", &h); err != nil {
			return false, err
		}
		return h.Status == "ok", nil
	})
}

// eachNode runs fn on every node concurrently and returns the first
// error.
func (f *fleet) eachNode(fn func(i int, p *proc) error) error {
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, p := range f.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
