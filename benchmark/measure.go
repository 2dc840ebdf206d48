package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// metricDef names one reported metric. The names, units and order match
// BENCHMARK.json; the package test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, each from the
// untraced timed runs (setup_s from the set-ups). The times are host CPU
// time, which leaves out the time the host took the processors away;
// README.md (Host time) gives the reason.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"ns_per_instr", "ns"},
	{"ns_per_event", "ns"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

// perLayer are the layer metrics, from the traced run unless README.md
// says otherwise.
var perLayer = []metricDef{
	{"workloads.calls", "count"},
	{"workloads.events", "count"},
	{"workloads.self_s", "s"},
	{"workloads.ns_per_event", "ns"},
	{"workloads.share", "frac"},
	{"workloads.tracecache_hits", "count"},
	{"workloads.tracecache_misses", "count"},
	{"workloads.tracecache_mb", "MiB"},
	{"core.calls", "count"},
	{"core.self_s", "s"},
	{"core.ns_per_call", "ns"},
	{"core.share", "frac"},
	{"dramcache.detailed_ops", "count"},
	{"dramcache.functional_ops", "count"},
	{"dramcache.batch_calls", "count"},
	{"dramcache.self_s", "s"},
	{"dramcache.ns_per_op", "ns"},
	{"dramcache.share", "frac"},
	{"dramcache.snapshot_s", "s"},
	{"dramcache.restore_s", "s"},
	{"dramcache.reads", "count"},
	{"dramcache.writebacks", "count"},
	{"dramcache.probe_reads", "count"},
	{"dramcache.hit_rate", "frac"},
	{"dramcache.pred_accuracy", "frac"},
	{"dram.hbm_ops", "count"},
	{"dram.pcm_reads", "count"},
	{"dram.pcm_writes", "count"},
	{"dram.hbm_bank_wait_cyc", "cycles"},
	{"cache.l3_misses", "count"},
	{"cache.l3_writebacks", "count"},
	{"sim.self_s", "s"},
	{"sim.spine_s", "s"},
	{"sim.detail_s", "s"},
	{"sim.worker_busy_frac", "frac"},
	{"sim.discarded_frac", "frac"},
	{"sim.intervals", "count"},
	{"ckpt.lattice_hits", "count"},
	{"ckpt.lattice_misses", "count"},
	{"ckpt.lattice_hit_frac", "frac"},
	{"ckpt.spine_save_s", "s"},
	{"ckpt.populate_s", "s"},
	{"ckpt.restored_frac", "frac"},
	{"ckpt.disk_mb", "MiB"},
	{"exp.points", "count"},
	{"exp.point_busy_s", "s"},
	{"exp.parallel_eff", "frac"},
	{"exp.point_p50_ms", "ms"},
	{"exp.point_p95_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_share", "frac"},
	{"trace.cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// plan is how much of a workload one process runs.
type plan struct {
	setups  int
	minReps int
	seconds float64
	trace   bool
}

// measure runs a workload per the plan and builds its report.
func measure(r runner, p plan) report {
	rep := report{Trace: p.trace}
	fail := func(what string, err error) {
		rep.Result.Failed++
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", what, err))
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	}

	var ref outcome
	var setupS, setupWall []float64
	for i := 0; i < p.setups; i++ {
		var out outcome
		var err error
		d := timed(func() { out, err = r.setup() })
		rep.Result.Attempted++
		if err != nil {
			fail("set-up", err)
			return finish(rep)
		}
		ref = out
		setupS = append(setupS, d.cpuS)
		setupWall = append(setupWall, d.wallS)
	}
	disk := r.diskMB()

	var wall, cpu, alloc, perInstr, perEvent []float64
	start := time.Now()
	for i := 0; i < p.minReps || time.Since(start).Seconds() < p.seconds; i++ {
		var out outcome
		d := timed(func() { out = r.run() })
		rep.Result.Attempted++
		if len(ref.results) == 0 && out.err == nil {
			ref = out // the first timed run is the reference
		}
		if err := r.check(ref, out); err != nil {
			fail(fmt.Sprintf("run %d", i), err)
			continue
		}
		instr, events := volume(out)
		wall = append(wall, d.wallS)
		cpu = append(cpu, d.cpuS)
		perInstr = append(perInstr, d.cpuS*1e9/instr)
		perEvent = append(perEvent, d.cpuS*1e9/events)
		alloc = append(alloc, d.allocMB)
	}
	if len(wall) == 0 {
		return finish(rep)
	}
	rep.Work, rep.Digest = workCounters(ref)
	samples := map[string][]float64{
		"cpu_s": cpu, "ns_per_instr": perInstr, "ns_per_event": perEvent,
		"setup_s": setupS, "alloc_mb": alloc, "peak_rss_mb": {readHost().maxRSSMB},
		"wall.run_s": wall, "wall.setup_s": setupWall,
	}
	rep.Detail = map[string]summary{}
	values := map[string]float64{}
	for name, xs := range samples {
		s := summarize(xs)
		rep.Detail[name] = s
		values[name] = s.Median
	}

	if p.trace {
		rep.Result.Attempted++
		if err := r.prepareTrace(ref); err != nil {
			fail("traced set-up", err)
			return finish(rep)
		}
		probes.reset()
		var out outcome
		d := timed(func() { out = r.traced() })
		rep.Result.Attempted++
		if err := r.check(ref, out); err != nil {
			fail("traced run", err)
			return finish(rep)
		}
		values = layerMetrics(probes.totals(), d, out, ref, disk, d.cpuS/values["cpu_s"]-1)
	}
	rep.Result.Metrics = map[string]metricValue{}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			panic("benchmark: metric " + m.name + " was not computed")
		}
		rep.Result.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return finish(rep)
}

// finish marks the report correct when every attempted step passed and
// the metrics were computed.
func finish(rep report) report {
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Metrics != nil
	if rep.Result.Metrics == nil {
		rep.Result.Metrics = map[string]metricValue{}
	}
	return rep
}

// volume is the work a run simulated: instructions retired and memory
// events over every design point, less the warmup it restored.
func volume(o outcome) (instr, events float64) {
	n, e := -o.warmInstr, -o.warmEvents
	for _, r := range o.results {
		n += r.InstructionsTotal
		e += r.Events
	}
	return float64(n), float64(e)
}

// workCounters are the deterministic counts of the reference outputs and a
// digest of the outputs themselves; a pure speed change leaves both
// unchanged.
func workCounters(o outcome) (map[string]uint64, string) {
	w := map[string]uint64{"points": uint64(len(o.results))}
	for _, r := range o.results {
		w["instructions"] += uint64(r.InstructionsTotal)
		w["events"] += uint64(r.Events)
		w["l4_reads"] += r.L4.Reads
		w["l4_read_hits"] += r.L4.ReadHits
		w["l4_writebacks"] += r.L4.Writebacks
		w["l4_probe_reads"] += r.L4.ProbeReads
		w["l4_predictions"] += r.L4.Predictions
		w["l4_predictions_correct"] += r.L4.Correct
		w["hbm_ops"] += r.HBM.Reads + r.HBM.Writes
		w["hbm_bank_wait_cyc"] += uint64(r.HBM.BankWait)
		w["pcm_reads"] += r.PCM.Reads
		w["pcm_writes"] += r.PCM.Writes
		w["l3_misses"] += r.L3.Misses
		w["l3_writebacks"] += r.L3.Writebacks
		if r.Sampled != nil {
			w["intervals"] += uint64(r.Sampled.Intervals)
		}
	}
	blob, err := json.Marshal(o.results)
	if err != nil {
		// A Result holds no NaN (undefined gauges are nil pointers, and
		// every sampled run completes its intervals); this is a bug.
		panic(err)
	}
	h := sha256.New()
	h.Write(blob)
	h.Write([]byte(o.tables))
	return w, hex.EncodeToString(h.Sum(nil))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of a traced run: t is the
// probe ledger, d the run's host cost, out its outcome, ref the reference
// outcome, disk the set-up's store size and overhead the traced run's CPU
// time over the untraced median, minus 1.
func layerMetrics(t layerTotals, d hostDelta, out, ref outcome, disk, overhead float64) map[string]float64 {
	m := map[string]float64{}
	wlS := t.streamNS / 1e9
	// The policy runs inside L4 calls, so its time cannot exceed theirs.
	// The two come from separate samples, and on a short run the policy's
	// estimate can overshoot; it is then capped at the L4's.
	policyNS := math.Min(t.policyNS, t.l4NS)
	coreS := policyNS / 1e9
	l4S := (t.l4NS - policyNS) / 1e9
	ops := float64(t.l4Detailed + t.l4Functional)

	m["workloads.calls"] = float64(t.streamCalls)
	m["workloads.events"] = float64(t.streamEvents)
	m["workloads.self_s"] = wlS
	m["workloads.ns_per_event"] = ratio(t.streamNS, float64(t.streamEvents))
	m["workloads.share"] = ratio(wlS, d.cpuS)
	m["workloads.tracecache_hits"] = float64(out.tc.hits)
	m["workloads.tracecache_misses"] = float64(out.tc.misses)
	m["workloads.tracecache_mb"] = out.tc.mb

	m["core.calls"] = float64(t.policyCalls)
	m["core.self_s"] = coreS
	m["core.ns_per_call"] = ratio(policyNS, float64(t.policyCalls))
	m["core.share"] = ratio(coreS, d.cpuS)

	m["dramcache.detailed_ops"] = float64(t.l4Detailed)
	m["dramcache.functional_ops"] = float64(t.l4Functional)
	m["dramcache.batch_calls"] = float64(t.l4Batches)
	m["dramcache.self_s"] = l4S
	m["dramcache.ns_per_op"] = ratio(l4S*1e9, ops)
	m["dramcache.share"] = ratio(l4S, d.cpuS)
	m["dramcache.snapshot_s"] = t.snapshotNS / 1e9
	m["dramcache.restore_s"] = t.restoreNS / 1e9

	w, _ := workCounters(out)
	m["dramcache.reads"] = float64(w["l4_reads"])
	m["dramcache.writebacks"] = float64(w["l4_writebacks"])
	m["dramcache.probe_reads"] = float64(w["l4_probe_reads"])
	m["dramcache.hit_rate"] = ratio(float64(w["l4_read_hits"]), float64(w["l4_reads"]))
	m["dramcache.pred_accuracy"] = ratio(float64(w["l4_predictions_correct"]), float64(w["l4_predictions"]))
	m["dram.hbm_ops"] = float64(w["hbm_ops"])
	m["dram.pcm_reads"] = float64(w["pcm_reads"])
	m["dram.pcm_writes"] = float64(w["pcm_writes"])
	m["dram.hbm_bank_wait_cyc"] = float64(w["hbm_bank_wait_cyc"])
	m["cache.l3_misses"] = float64(w["l3_misses"])
	m["cache.l3_writebacks"] = float64(w["l3_writebacks"])

	m["sim.self_s"] = d.cpuS - wlS - coreS - l4S - d.gcCPUS
	m["sim.spine_s"] = out.work.SpineTime.Seconds()
	m["sim.detail_s"] = out.work.DetailTime.Seconds()
	m["sim.worker_busy_frac"] = ratio(out.work.DetailTime.Seconds(), out.work.WallTime.Seconds()*float64(out.work.Workers))
	m["sim.discarded_frac"] = ratio(float64(out.work.Discarded), float64(out.work.Dispatched))
	m["sim.intervals"] = float64(w["intervals"])

	m["ckpt.lattice_hits"] = float64(out.work.LatticeHits)
	m["ckpt.lattice_misses"] = float64(out.work.LatticeMisses)
	m["ckpt.lattice_hit_frac"] = ratio(float64(out.work.LatticeHits), float64(out.work.LatticeHits+out.work.LatticeMisses))
	m["ckpt.spine_save_s"] = ref.work.SpineSaveTime.Seconds()
	m["ckpt.populate_s"] = 0
	if ref.work.LatticeMisses > 0 {
		m["ckpt.populate_s"] = ref.work.WallTime.Seconds()
	}
	m["ckpt.disk_mb"] = disk

	var lat []float64
	busy, warm := 0.0, 0
	for _, pt := range out.points {
		lat = append(lat, pt.latency.Seconds()*1e3)
		busy += pt.latency.Seconds()
		if pt.warm {
			warm++
		}
	}
	m["ckpt.restored_frac"] = ratio(float64(warm), float64(len(out.points)))
	m["exp.points"] = float64(len(out.points))
	m["exp.point_busy_s"] = busy
	m["exp.parallel_eff"] = ratio(busy, d.wallS*float64(hostWorkers))
	m["exp.point_p50_ms"], m["exp.point_p95_ms"] = 0, 0
	if len(lat) >= 2 {
		m["exp.point_p50_ms"], m["exp.point_p95_ms"] = median(lat), p95(lat)
	}

	m["runtime.gc_cpu_s"] = d.gcCPUS
	m["runtime.gc_share"] = ratio(d.gcCPUS, d.cpuS)
	m["trace.cpu_s"] = d.cpuS
	m["trace.overhead_frac"] = overhead
	return m
}
