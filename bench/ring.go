package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Sketch geometry of every writer and reader in the benchmark: the
// daemons' defaults, passed explicitly so that a changed default does
// not silently change the work measured.
const (
	geomK    = 16
	geomM    = 64
	geomKind = "sll"
	geomLim  = 5
)

// child is one daemon process the benchmark started.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string        // path of its combined stdout+stderr
	done chan struct{} // closed once Wait has returned
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the child's log, for a failure report.
func (c *child) logTail() string {
	raw, err := os.ReadFile(c.log)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return fmt.Sprintf("---- %s (%s)\n%s", c.name, c.log, raw)
}

// procs owns every child process of a run. Each child leads its own
// process group, so stopping it also stops anything it spawned.
type procs struct {
	mu       sync.Mutex
	children []*child
}

// start launches bin with args, logging to logPath.
func (p *procs) start(name, logPath, bin string, args ...string) (*child, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	err = cmd.Start()
	logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait() // exit status is not used: any exit before stopAll is a failure
		close(c.done)
	}()
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()
	return c, nil
}

// stopAll sends SIGTERM to every child's process group, waits for each
// to end, and kills what is still running after the grace period. It is
// safe to call more than once and from the signal handler.
func (p *procs) stopAll() {
	p.mu.Lock()
	children := p.children
	p.children = nil
	p.mu.Unlock()
	for _, c := range children {
		syscall.Kill(-c.pid(), syscall.SIGTERM) // error means already gone
	}
	grace := time.After(3 * time.Second)
	for _, c := range children {
		select {
		case <-c.done:
		case <-grace:
			syscall.Kill(-c.pid(), syscall.SIGKILL)
			<-c.done
		}
	}
}

// firstExited returns a child that has exited, or nil.
func (p *procs) firstExited() *child {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.children {
		if c.exited() {
			return c
		}
	}
	return nil
}

// waitForLog polls the child's log for re's first submatch: the daemons
// print their kernel-assigned addresses right after binding.
func waitForLog(c *child, re *regexp.Regexp) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		raw, _ := os.ReadFile(c.log)
		if m := re.FindSubmatch(raw); m != nil {
			return string(m[1]), nil
		}
		if c.exited() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("%s never logged %q\n%s", c.name, re, c.logTail())
}

var (
	reServing = regexp.MustCompile(`serving on ([0-9.]+:[0-9]+)`)
	reAdmin   = regexp.MustCompile(`admin on ([0-9.]+:[0-9]+)`)
	reDhsd    = regexp.MustCompile(`serving estimates on ([0-9.]+:[0-9]+)`)
)

// node is one `dhsnode serve -admin` process.
type node struct {
	*child
	addr  string // RPC listener
	admin string // admin HTTP listener
}

// ring is the system under test: n dhsnode processes and one dhsd.
type ring struct {
	procs  *procs
	binDir string
	outDir string
	nodes  []*node
	dhsd   *child
	dhsdAt string // dhsd's HTTP address
}

// buildDaemons compiles cmd/dhsnode and cmd/dhsd from the checkout at
// root into binDir.
func buildDaemons(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/dhsnode", "./cmd/dhsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/dhsnode ./cmd/dhsd: %w\n%s", err, out)
	}
	return nil
}

// startRing starts n nodes with the daemon's default maintenance flags
// on kernel-assigned loopback ports, node-0 as the bootstrap. Node
// names are fixed, so identifiers — and with them the ring layout — are
// the same in every run.
func startRing(p *procs, binDir, outDir string, n int) (*ring, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r := &ring{procs: p, binDir: binDir, outDir: outDir}
	bin := filepath.Join(binDir, "dhsnode")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%d", i)
		args := []string{"serve", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-name", name}
		if i > 0 {
			args = append(args, "-join", r.nodes[0].addr)
		}
		c, err := p.start(name, filepath.Join(outDir, name+".log"), bin, args...)
		if err != nil {
			return nil, err
		}
		nd := &node{child: c}
		r.nodes = append(r.nodes, nd)
		if i == 0 {
			// The others join through the bootstrap's address.
			if nd.addr, err = waitForLog(c, reServing); err != nil {
				return nil, err
			}
		}
	}
	for _, nd := range r.nodes {
		var err error
		if nd.addr, err = waitForLog(nd.child, reServing); err != nil {
			return nil, err
		}
		if nd.admin, err = waitForLog(nd.child, reAdmin); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *ring) entry() string { return r.nodes[0].addr }

// succListLen is chord.DefaultSuccListLen, the daemon's successor-list
// length.
const succListLen = 4

// awaitConverged polls /statusz until the ring has settled: every node
// linked, with a full successor list, the first successors closing one
// cycle through all nodes, and every finger table holding the distinct
// owners its identifier implies.
func (r *ring) awaitConverged() error {
	n := len(r.nodes)
	deadline := time.Now().Add(30 * time.Second)
	why := "no poll completed"
	for time.Now().Before(deadline) {
		if c := r.procs.firstExited(); c != nil {
			return fmt.Errorf("%s exited during ring start\n%s", c.name, c.logTail())
		}
		sts, err := r.statuses()
		if err == nil {
			if why = convergedWhy(sts, n); why == "" {
				return nil
			}
		} else {
			why = err.Error()
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("ring did not converge in 30s: %s\n%s", why, r.nodes[0].logTail())
}

func (r *ring) statuses() ([]nodeStatus, error) {
	sts := make([]nodeStatus, len(r.nodes))
	for i, nd := range r.nodes {
		st, err := scrapeStatus(nd.admin)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	return sts, nil
}

// convergedWhy returns "" when the statuses describe a settled ring of
// n nodes, and otherwise what is still missing.
func convergedWhy(sts []nodeStatus, n int) string {
	want := min(succListLen, n-1)
	ids := make([]uint64, len(sts))
	next := map[string]string{}
	for i, st := range sts {
		if !st.Alive || (n > 1 && !st.Linked) {
			return st.Addr + " not linked"
		}
		if len(st.Successors) != want {
			return fmt.Sprintf("%s has %d of %d successors", st.Addr, len(st.Successors), want)
		}
		id, err := strconv.ParseUint(st.ID, 16, 64)
		if err != nil {
			return "bad id " + st.ID
		}
		ids[i] = id
		if want > 0 {
			next[st.Addr] = st.Successors[0]
		}
	}
	if n > 1 {
		at, steps := sts[0].Addr, 0
		for ; steps < n; steps++ {
			at = next[at]
			if at == sts[0].Addr {
				break
			}
		}
		if steps != n-1 {
			return fmt.Sprintf("successor cycle from %s closes after %d nodes, not %d", sts[0].Addr, steps+1, n)
		}
	}
	for i, st := range sts {
		if want := expectedFingers(ids, ids[i]); st.Fingers != want {
			return fmt.Sprintf("%s has %d of %d distinct fingers", st.Addr, st.Fingers, want)
		}
	}
	return ""
}

// expectedFingers counts the distinct nodes, other than self, that own
// self+2^b for b = 0..63 — what /statusz reports as "fingers" once
// fix-fingers has been round the table.
func expectedFingers(ids []uint64, self uint64) int {
	sorted := append([]uint64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	owners := map[uint64]bool{}
	for b := 0; b < 64; b++ {
		key := self + 1<<uint(b)
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= key })
		owner := sorted[i%len(sorted)] // past the largest id the ring wraps
		if owner != self {
			owners[owner] = true
		}
	}
	return len(owners)
}

// startDhsd starts the query frontend against the ring's entry node
// with the workload's serving flags.
func (r *ring) startDhsd(seed uint64, flags []string) error {
	args := []string{
		"-entry", r.entry(), "-listen", "127.0.0.1:0",
		"-k", strconv.Itoa(geomK), "-m", strconv.Itoa(geomM), "-kind", geomKind, "-lim", strconv.Itoa(geomLim),
		"-seed", strconv.FormatUint(seed, 10),
	}
	c, err := r.procs.start("dhsd", filepath.Join(r.outDir, "dhsd.log"), filepath.Join(r.binDir, "dhsd"), append(args, flags...)...)
	if err != nil {
		return err
	}
	r.dhsd = c
	r.dhsdAt, err = waitForLog(c, reDhsd)
	return err
}

// checkHealthy fails if any child has exited or any /healthz is not ok.
func (r *ring) checkHealthy() error {
	if c := r.procs.firstExited(); c != nil {
		return fmt.Errorf("%s exited\n%s", c.name, c.logTail())
	}
	check := func(c *child, addr string) error {
		body, err := httpGet("http://" + addr + "/healthz")
		if err == nil && strings.TrimSpace(string(body)) != "ok" {
			err = fmt.Errorf("/healthz says %q", bytes.TrimSpace(body))
		}
		if err != nil {
			return fmt.Errorf("%s unhealthy: %w\n%s", c.name, err, c.logTail())
		}
		return nil
	}
	for _, nd := range r.nodes {
		if err := check(nd.child, nd.admin); err != nil {
			return err
		}
	}
	return check(r.dhsd, r.dhsdAt)
}

// holdSteady watches the loaded ring for d: every quarter of a second it
// must still be converged, with every child alive and every /healthz ok.
func (r *ring) holdSteady(d time.Duration) error {
	for end := time.Now().Add(d); ; {
		if err := r.checkHealthy(); err != nil {
			return err
		}
		sts, err := r.statuses()
		if err != nil {
			return err
		}
		if why := convergedWhy(sts, len(r.nodes)); why != "" {
			return fmt.Errorf("ring lost convergence after loading: %s", why)
		}
		if !time.Now().Before(end) {
			return nil
		}
		time.Sleep(min(250*time.Millisecond, time.Until(end)))
	}
}

// snapshot is everything scraped from outside the daemons at one
// instant: CPU and memory first, because reading /proc is quick and the
// HTTP scrapes that follow are themselves load.
type snapshot struct {
	machine  machineCPU
	nodeProc []procUsage
	dhsdProc procUsage
	selfProc procUsage
	nodeProm []samples
	nodeStat []nodeStatus
	dhsdProm samples
}

func (r *ring) snapshot() (*snapshot, error) {
	s := &snapshot{}
	var err error
	if s.machine, err = readMachineCPU(); err != nil {
		return nil, err
	}
	for _, nd := range r.nodes {
		u, err := readProc(nd.pid())
		if err != nil {
			return nil, err
		}
		s.nodeProc = append(s.nodeProc, u)
	}
	if s.dhsdProc, err = readProc(r.dhsd.pid()); err != nil {
		return nil, err
	}
	if s.selfProc, err = readProc(0); err != nil {
		return nil, err
	}
	for _, nd := range r.nodes {
		prom, err := scrapeMetrics(nd.admin)
		if err != nil {
			return nil, err
		}
		s.nodeProm = append(s.nodeProm, prom)
	}
	if s.nodeStat, err = r.statuses(); err != nil {
		return nil, err
	}
	if s.dhsdProm, err = scrapeMetrics(r.dhsdAt); err != nil {
		return nil, err
	}
	return s, nil
}
