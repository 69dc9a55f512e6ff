package jumanji

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// isolates one mechanism and reports, as custom metrics, how much it
// matters. They complement the per-figure benchmarks: figures reproduce
// the paper, ablations justify the reproduction's modeling choices.

import (
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/system"
)

func ablationWorkload(b *testing.B, seed int64) (system.Config, system.Workload) {
	b.Helper()
	cfg := system.DefaultConfig()
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	wl, err := system.CaseStudyWorkload(cfg.Machine, "xapian", rng, true)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, wl
}

// BenchmarkAblationTrading reproduces the paper's negative result
// (Sec. VIII-C): the sophisticated trading algorithm accepts almost no
// trades under the cannot-penalize-latency-critical constraint and gains
// almost nothing over plain Jumanji.
func BenchmarkAblationTrading(b *testing.B) {
	var gain, acceptRate float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 61)
		base := system.Run(cfg, wl, core.JumanjiPlacer{}, 40, 15)
		trader := &core.TradePlacer{}
		traded := system.Run(cfg, wl, trader, 40, 15)
		gain = traded.BatchWeightedSpeedup/base.BatchWeightedSpeedup - 1
		if trader.TradesAttempted > 0 {
			acceptRate = float64(trader.TradesAccepted) / float64(trader.TradesAttempted)
		}
	}
	b.ReportMetric(gain*100, "trading-gain-%")
	b.ReportMetric(acceptRate*100, "trade-accept-%")
}

// BenchmarkAblationVantage swaps way-partitioning for Vantage-style
// fine-grained partitioning in the performance model. VM-Part — whose
// weakness is precisely the associativity loss of per-VM way masks
// (Sec. II-C: "only a few partitions can be used before performance drops
// precipitously") — should recover batch performance, while Jumanji, whose
// D-NUCA partitions already have ~whole-bank associativity, barely moves.
func BenchmarkAblationVantage(b *testing.B) {
	var vmPartGain, jumanjiGain float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 67)
		fine := cfg
		fine.FineGrainedPartitioning = true
		gain := func(p core.Placer) float64 {
			way := system.Run(cfg, wl, p, 40, 15)
			van := system.Run(fine, wl, p, 40, 15)
			return van.BatchWeightedSpeedup/way.BatchWeightedSpeedup - 1
		}
		vmPartGain = gain(core.VMPartPlacer{})
		jumanjiGain = gain(core.JumanjiPlacer{})
	}
	b.ReportMetric(vmPartGain*100, "vmpart-gain-%")
	b.ReportMetric(jumanjiGain*100, "jumanji-gain-%")
}

// BenchmarkAblationBurstiness disables the LCVisibleRate asymmetry
// (latency-critical apps appear to data-movement placers at their full
// time-averaged intensity). Jigsaw's deadline violations should soften
// substantially — showing this assumption carries the paper's "Jigsaw
// starves latency-critical applications" behaviour, as documented in
// EXPERIMENTS.md.
func BenchmarkAblationBurstiness(b *testing.B) {
	var withTail, withoutTail float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 42)
		r := system.Run(cfg, wl, core.JigsawPlacer{}, 40, 15)
		withTail = r.WorstNormTail
		cfg.LCVisibleRate = 1.0
		r = system.Run(cfg, wl, core.JigsawPlacer{}, 40, 15)
		withoutTail = r.WorstNormTail
	}
	b.ReportMetric(withTail, "jigsaw-tail-bursty")
	b.ReportMetric(withoutTail, "jigsaw-tail-smooth")
}

// BenchmarkAblationShrinkPatience compares the controller's default
// two-window shrink hysteresis against shrink-on-first-quiet-window
// (patience 1): without patience the controller dithers into the queueing
// cliff and the tail degrades, at essentially no batch cost.
func BenchmarkAblationShrinkPatience(b *testing.B) {
	var patientTail, eagerTail float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 73)
		r := system.Run(cfg, wl, core.JumanjiPlacer{}, 40, 15)
		patientTail = r.WorstNormTail
		cfg.Feedback.ShrinkPatience = 1
		r = system.Run(cfg, wl, core.JumanjiPlacer{}, 40, 15)
		eagerTail = r.WorstNormTail
	}
	b.ReportMetric(patientTail, "tail-patience2")
	b.ReportMetric(eagerTail, "tail-patience1")
}

// BenchmarkAblationQueueControl compares the paper's tail-latency feedback
// (Listing 1) against the queue-depth alternative it sketches (Sec. V-C).
// Both should meet deadlines; the comparison shows what the extra
// application-provided signal buys (or doesn't).
func BenchmarkAblationQueueControl(b *testing.B) {
	var tailCtl, queueCtl, tailAlloc, queueAlloc float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 42)
		r := system.Run(cfg, wl, core.JumanjiPlacer{}, 40, 15)
		tailCtl = r.WorstNormTail
		tailAlloc = meanLCAlloc(r)
		cfg.QueueControl = true
		r = system.Run(cfg, wl, core.JumanjiPlacer{}, 40, 15)
		queueCtl = r.WorstNormTail
		queueAlloc = meanLCAlloc(r)
	}
	b.ReportMetric(tailCtl, "tail-ctrl-tail")
	b.ReportMetric(queueCtl, "queue-ctrl-tail")
	b.ReportMetric(tailAlloc, "tail-ctrl-MB")
	b.ReportMetric(queueAlloc, "queue-ctrl-MB")
}

func meanLCAlloc(r *system.RunResult) float64 {
	total, n := 0.0, 0
	for _, a := range r.Apps {
		if a.LatencyCritical {
			total += a.MeanAllocMB
			n++
		}
	}
	return total / float64(n)
}

// BenchmarkAblationReconfigPeriod sweeps the reconfiguration period
// (Sec. IV-B: "More frequent reconfigurations do not improve results").
// On the steady case-study workload, speedup should be nearly flat from
// every-epoch down to every-tenth-epoch reconfiguration; the controllers'
// tail response degrades gently as updates apply later.
func BenchmarkAblationReconfigPeriod(b *testing.B) {
	var sp1, sp5, sp10, tail10 float64
	for i := 0; i < b.N; i++ {
		cfg, wl := ablationWorkload(b, 42)
		run := func(n int) *system.RunResult {
			c := cfg
			c.ReconfigEpochs = n
			return system.Run(c, wl, core.JumanjiPlacer{}, 40, 15)
		}
		base := run(1)
		sp1 = 1
		sp5 = run(5).BatchWeightedSpeedup / base.BatchWeightedSpeedup
		r10 := run(10)
		sp10 = r10.BatchWeightedSpeedup / base.BatchWeightedSpeedup
		tail10 = r10.WorstNormTail
	}
	_ = sp1
	b.ReportMetric(sp5, "speedup-every5-rel")
	b.ReportMetric(sp10, "speedup-every10-rel")
	b.ReportMetric(tail10, "tail-every10")
}
