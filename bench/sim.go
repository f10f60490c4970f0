package main

import (
	"fmt"
	"time"

	"dhsketch"
)

// sim_scan's sizes: the simulator facade the way cmd/dhsbench uses it.
// At 1024 nodes and 512 vectors a metric needs some hundred thousand
// items before lim = 5 probes per interval find most of its bits.
const (
	simNodes        = 1024
	simM            = 512
	simMetrics      = 8
	simCounted      = 250000  // distinct items under each counted metric c-*
	simInsertPool   = 1 << 16 // item identifiers the insert half cycles through
	simInsertsPerOp = 40
	// simSetups is how many times a run builds and loads the simulator;
	// setup_s is the median.
	simSetups = 3
)

// simState is a loaded simulator: c-* metrics hold simCounted items
// each and are only counted; i-* metrics only receive inserts. Keeping
// the two apart keeps the cost of a Count independent of how many
// inserts a faster or slower build fits into the window.
type simState struct {
	dhs     *dhsketch.DHS
	names   []string // of the counted metrics
	counted []uint64
	written []uint64
	items   []uint64
}

func newSimState(seed uint64) (*simState, error) {
	d, err := dhsketch.New(dhsketch.NewNetwork(seed, simNodes), dhsketch.Config{M: simM})
	if err != nil {
		return nil, err
	}
	s := &simState{dhs: d}
	for j := 0; j < simMetrics; j++ {
		s.names = append(s.names, fmt.Sprintf("c-%d", j))
		s.counted = append(s.counted, dhsketch.MetricID(s.names[j]))
		s.written = append(s.written, dhsketch.MetricID(fmt.Sprintf("i-%d", j)))
	}
	s.items = make([]uint64, simInsertPool)
	for i := range s.items {
		s.items[i] = dhsketch.ItemID(fmt.Sprintf("s%d/i/%d", seed, i))
	}
	for j, m := range s.counted {
		for i := 0; i < simCounted; i++ {
			if _, err := d.Insert(m, dhsketch.ItemID(fmt.Sprintf("s%d/c-%d/%d", seed, j, i))); err != nil {
				return nil, fmt.Errorf("simulator preload: %w", err)
			}
		}
	}
	return s, nil
}

// runSim runs sim_scan. One operation is simInsertsPerOp facade Inserts
// followed by one facade Count: a metric written far more often than it
// is read, the 40:1 mix of 4M inserts to 100k counts.
func runSim(sz sizing, seed uint64, window time.Duration) (*runResult, error) {
	var s *simState
	setups := make([]float64, simSetups)
	for i := range setups {
		t0 := time.Now()
		var err error
		if s, err = newSimState(seed); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	time.Sleep(sz.settle) // the same settle as the network workloads; see its comment

	res := &runResult{endToEnd: readings{}, perLayer: readings{}}
	var samples []sample
	var selfCPU []time.Duration // this process's CPU time at each slice boundary reached
	var insertTime, countTime time.Duration
	var hops, bytes int64 // the simulator's own cost accounting (§5.1 size model)
	relErr := relErrs{}
	measureFrom := time.Now().Add(window / 10) // warm-up: caches and the heap settle
	nextItem := 0
	machineBefore, err := readMachineCPU()
	if err != nil {
		return nil, err
	}
	for round := 0; len(selfCPU) <= int(window/sliceLen); round++ {
		t0 := time.Now()
		if !t0.Before(measureFrom.Add(time.Duration(len(selfCPU)) * sliceLen)) {
			u, err := readProc(0)
			if err != nil {
				return nil, err
			}
			selfCPU = append(selfCPU, u.cpu)
			continue
		}
		j := round % simMetrics
		var opErr error
		var opHops, opBytes int64
		for i := 0; i < simInsertsPerOp; i++ {
			cost, err := s.dhs.Insert(s.written[j], s.items[nextItem])
			if err != nil {
				opErr = err
			}
			opHops += cost.Hops
			opBytes += cost.Bytes
			nextItem = (nextItem + 1) % len(s.items)
		}
		t1 := time.Now()
		est, err := s.dhs.Count(s.counted[j])
		t2 := time.Now()
		if len(selfCPU) == 0 {
			continue // warm-up
		}
		res.attempted++
		if opErr != nil || err != nil || est.Quality.Degraded {
			res.failed++
			continue
		}
		hops += opHops + est.Cost.Hops
		bytes += opBytes + est.Cost.Bytes
		samples = append(samples, sample{at: t2.Sub(measureFrom), lat: ms(t2.Sub(t0))})
		insertTime += t1.Sub(t0)
		countTime += t2.Sub(t1)
		relErr.observe(s.names[j], est.Value, simCounted)
	}
	done := len(samples)
	if done == 0 {
		return nil, fmt.Errorf("sim_scan completed no operation in %v", window)
	}
	self, err := readProc(0)
	if err != nil {
		return nil, err
	}
	machineAfter, err := readMachineCPU()
	if err != nil {
		return nil, err
	}

	relErrMean, _ := relErr.mean()
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d simulator operations failed", res.failed, res.attempted))
	}
	if relErrMean > maxRelErr {
		res.problems = append(res.problems, fmt.Sprintf("mean relative error %.3f > %v", relErrMean, maxRelErr))
	}
	e2e := res.endToEnd
	e2e.set("setup_s", median(setups)+sz.settle.Seconds(), simSetups)
	e2e.set("msgs_per_op", float64(hops)/float64(done), done)
	e2e.set("bytes_per_op", float64(bytes)/float64(done), done)
	e2e.set("rss_mb", self.rss, 1)
	e2e.set("est_accuracy", 1-relErrMean, done)
	layer := res.perLayer
	layer.set("dhsketch.insert_per_s", float64(done*simInsertsPerOp)/insertTime.Seconds(), done*simInsertsPerOp)
	layer.set("dhsketch.count_per_s", float64(done)/countTime.Seconds(), done)
	layer.set("loadgen.cpu_available", machineAfter.available(machineBefore), 1)
	summarize(samples, selfCPU).report(layer)
	layer.set("loadgen.fail_ratio", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	layer.set("loadgen.est_rel_err_mean", relErrMean, done)
	return res, nil
}
