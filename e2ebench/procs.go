package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running certd process.
type proc struct {
	cmd  *exec.Cmd
	base string
	args []string
	done chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startCertd launches bin listening on a free loopback port, with its log
// in logPath.
func startCertd(bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args = append([]string{"-addr", addr}, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the generator is killed, certd is told to drain and exit too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start certd: %w", err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, args: args, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once we stop it
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// probeClient has no keep-alive so a readiness poll never holds a
// connection the load could use.
var probeClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func getJSON(url string, v any) (int, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// waitUntil polls ready every 200µs until it reports true, any of
// procs exits, or the timeout passes.
func waitUntil(procs []*proc, timeout time.Duration, ready func() bool) error {
	deadline := time.Now().Add(timeout)
	for !ready() {
		for _, p := range procs {
			if p.exited() {
				return fmt.Errorf("certd %v exited during setup", p.args)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("certd not ready after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func readyz(base string) func() bool {
	return func() bool {
		code, err := getJSON(base+"/readyz", nil)
		return err == nil && code == http.StatusOK
	}
}

// cpuTicks is user+sys CPU time of pid in clock ticks (utime and stime of
// /proc/<pid>/stat, summed over all threads).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ, 100 on every Linux architecture Go
// supports.
const clockTick = 10 * time.Millisecond

func cpuOf(procs []*proc) (time.Duration, error) {
	var total int64
	for _, p := range procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return time.Duration(total) * clockTick, nil
}

// hostTicks is the machine-wide steal and total CPU time, in clock ticks,
// from the first line of /proc/stat; ok is false when it is unreadable.
type hostTicks struct {
	steal, total int64
	ok           bool
}

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	h := hostTicks{ok: true}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		if i == 7 {
			h.steal = n
		}
		h.total += n
	}
	return h
}

// stealPctSince is the share of the machine's CPU time the hypervisor took
// since h, or -1 when it is unknown.
func (h hostTicks) stealPctSince() float64 {
	now := readHostTicks()
	if !h.ok || !now.ok || now.total <= h.total {
		return -1
	}
	return 100 * float64(now.steal-h.steal) / float64(now.total-h.total)
}

// vmHWM is the peak resident set of pid in kB.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches a Prometheus text exposition as series -> value.
func scrape(base string) (map[string]float64, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm reads a Prometheus text exposition as series -> value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumSeries adds every series of metric name whose labels contain all of
// the given label pairs (each written as k="v").
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				match = false
				break
			}
		}
		if match {
			s += v
		}
	}
	return s
}

// filesystemOf names the filesystem type holding dir, from /proc/mounts
// (longest mount-point prefix).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}
