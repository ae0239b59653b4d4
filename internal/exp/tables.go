package exp

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// Table1 renders the base system's no-contention latencies (the paper's
// Table 1), echoing the configuration the simulator actually uses.
func Table1() string {
	c := config.Base()
	rows := [][]string{
		{"Compute processor", "200 MHz PowerPC-class, 1 cycle = 5 ns"},
		{"L1 / L2 cache", fmt.Sprintf("%d KB / %d MB, %d-way LRU, %d B lines",
			c.L1Size/1024, c.L2Size/(1024*1024), c.L2Assoc, c.LineSize)},
		{"L1 hit / L2 hit", fmt.Sprintf("%d / %d cycles", c.L1HitTime, c.L2HitTime)},
		{"Detect L2 miss", fmt.Sprintf("%d cycles", c.L2MissDetect)},
		{"SMP bus", "100 MHz, 16 B wide, split transaction, separate address and data"},
		{"Bus address strobe to next address strobe", fmt.Sprintf("%d cycles", c.AddrStrobe)},
		{"Bus address strobe to start of data from memory", fmt.Sprintf("%d cycles", c.MemAccess)},
		{"Bus address strobe to start of cache-to-cache data", fmt.Sprintf("%d cycles", c.CacheToCache)},
		{"Line transfer on data bus", fmt.Sprintf("%d cycles (critical quad word first, +%d)", c.BusDataTime(), c.CriticalQuad)},
		{"Memory", fmt.Sprintf("%d interleaved banks per node, %d-cycle bank busy", c.MemBanks, c.BankBusy)},
		{"Network point-to-point", fmt.Sprintf("%d cycles (%.0f ns), %d B links", c.NetLatency, c.NetLatency.Nanoseconds(), c.NetFlitBytes)},
		{"Directory cache", fmt.Sprintf("%d entries, write-through; DRAM read %d cycles", c.DirCacheEntries, c.DirDRAMRead)},
		{"Base machine", fmt.Sprintf("%d nodes x %d processors", c.Nodes, c.ProcsPerNode)},
	}
	return renderTable("Table 1: base system no-contention latencies (compute processor cycles, 5 ns)",
		[]string{"Component", "Value"}, rows)
}

// Table2 renders the protocol-engine sub-operation occupancies (Table 2).
func Table2() string {
	costs := config.DefaultCosts()
	var rows [][]string
	for op := config.SubOp(0); op < config.SubOp(config.NumSubOps); op++ {
		rows = append(rows, []string{
			op.String(),
			fmt.Sprintf("%d", costs.Cost(config.HWC, op)),
			fmt.Sprintf("%d", costs.Cost(config.PPC, op)),
			fmt.Sprintf("%d", costs.Cost(config.PPCA, op)),
		})
	}
	return renderTable("Table 2: protocol engine sub-operation occupancies (compute processor cycles; PPCA is the section 5 extension)",
		[]string{"Sub-operation", "HWC", "PPC", "PPCA"}, rows)
}

// Table3Result is the measured no-contention remote clean read latency.
type Table3Result struct {
	HWC, PPC sim.Time
	// Paper's values for reference.
	PaperHWC, PaperPPC sim.Time
}

// RelativeIncrease returns the PPC latency increase over HWC.
func (t Table3Result) RelativeIncrease() float64 {
	if t.HWC == 0 {
		return 0
	}
	return float64(t.PPC-t.HWC) / float64(t.HWC)
}

// Table3 measures the latency of a read miss to a remote line clean at
// home on an otherwise idle two-node system, for both engine kinds.
func Table3() (Table3Result, error) {
	res := Table3Result{PaperHWC: 142, PaperPPC: 212}
	for _, kind := range []config.EngineKind{config.HWC, config.PPC} {
		cfg := config.Base()
		cfg.Nodes, cfg.ProcsPerNode = 2, 1
		cfg.Engine = kind
		cfg.SimLimit = 1_000_000
		m, err := machine.New(cfg, "probe")
		if err != nil {
			return res, err
		}
		addr := m.Space.AllocOnNode(4096, 0)
		r, err := m.Run(func(e *prog.Env) {
			if e.ID() == 1 {
				e.Read(addr)
			}
		})
		if err != nil {
			return res, err
		}
		if kind == config.HWC {
			res.HWC = r.ExecTime
		} else {
			res.PPC = r.ExecTime
		}
	}
	return res, nil
}

// Render formats the Table 3 reproduction.
func (t Table3Result) Render() string {
	rows := [][]string{
		{"HWC", fmt.Sprintf("%d", t.HWC), fmt.Sprintf("%d", t.PaperHWC)},
		{"PPC", fmt.Sprintf("%d", t.PPC), fmt.Sprintf("%d", t.PaperPPC)},
		{"PPC/HWC increase", fmt.Sprintf("%.0f%%", 100*t.RelativeIncrease()), "49%"},
	}
	return renderTable("Table 3: no-contention latency of a read miss to a remote line clean at home (cycles)",
		[]string{"Engine", "Measured", "Paper"}, rows)
}

// Table4 renders every protocol handler's no-contention occupancy for both
// engines (dispatch included, directory-cache hits assumed), reproducing
// the paper's Table 4.
func Table4() string {
	costs := config.DefaultCosts()
	cfg := config.Base()
	var rows [][]string
	var hwcSum, ppcSum sim.Time
	for _, h := range protocol.Table4Handlers {
		// Occupancies include the no-contention SMP bus / local memory
		// access time of fetching handlers, as the paper's Table 4 does.
		stall := protocol.StallTime(&cfg, protocol.Stall(h))
		hwc := costs.Cost(config.HWC, config.OpDispatch) + protocol.Occupancy(&costs, config.HWC, h, 0) + stall
		ppc := costs.Cost(config.PPC, config.OpDispatch) + protocol.Occupancy(&costs, config.PPC, h, 0) + stall
		hwcSum += hwc
		ppcSum += ppc
		rows = append(rows, []string{
			h.String(),
			fmt.Sprintf("%d", hwc),
			fmt.Sprintf("%d", ppc),
			fmt.Sprintf("%.1f", float64(ppc)/float64(hwc)),
		})
	}
	rows = append(rows, []string{
		"mean (unweighted)",
		fmt.Sprintf("%.1f", float64(hwcSum)/float64(len(protocol.Table4Handlers))),
		fmt.Sprintf("%.1f", float64(ppcSum)/float64(len(protocol.Table4Handlers))),
		fmt.Sprintf("%.1f", float64(ppcSum)/float64(hwcSum)),
	})
	return renderTable("Table 4: protocol engine handler occupancies (compute processor cycles, incl. dispatch)",
		[]string{"Handler", "HWC", "PPC", "ratio"}, rows)
}

// Table6Row is one application's communication statistics on the base
// system (the paper's Table 6).
type Table6Row struct {
	App            string
	Penalty        float64 // PPC execution-time increase over HWC
	RCCPIx1000     float64
	OccupancyRatio float64 // PPC occupancy / HWC occupancy
	HWCUtil        float64
	PPCUtil        float64
	HWCQueueNs     float64
	PPCQueueNs     float64
	HWCArrivalUs   float64 // requests per microsecond per controller
	PPCArrivalUs   float64
	// Queue-delay distribution percentiles (cycles), interpolated from the
	// merged per-engine histograms.
	HWCQueueP50, HWCQueueP95, HWCQueueP99 float64
	PPCQueueP50, PPCQueueP95, PPCQueueP99 float64
}

// Table6 computes the communication statistics from the base runs.
func (s *Suite) Table6() ([]Table6Row, error) {
	var rows []Table6Row
	var p plan
	for _, app := range workload.PaperApps {
		p.pair(s.req(app, "HWC", base()), s.req(app, "PPC", base()), func(hwc, ppc *stats.Run) {
			hq := hwc.QueueDelayHistogram()
			pq := ppc.QueueDelayHistogram()
			rows = append(rows, Table6Row{
				App:            AppLabel(app),
				Penalty:        stats.Penalty(hwc, ppc),
				RCCPIx1000:     1000 * hwc.RCCPI(),
				OccupancyRatio: stats.OccupancyRatio(hwc, ppc),
				HWCUtil:        hwc.AvgUtilization(-1),
				PPCUtil:        ppc.AvgUtilization(-1),
				HWCQueueNs:     hwc.AvgQueueDelayNs(-1),
				PPCQueueNs:     ppc.AvgQueueDelayNs(-1),
				HWCArrivalUs:   hwc.ArrivalRatePerMicrosecond(),
				PPCArrivalUs:   ppc.ArrivalRatePerMicrosecond(),
				HWCQueueP50:    hq.Percentile(50),
				HWCQueueP95:    hq.Percentile(95),
				HWCQueueP99:    hq.Percentile(99),
				PPCQueueP50:    pq.Percentile(50),
				PPCQueueP95:    pq.Percentile(95),
				PPCQueueP99:    pq.Percentile(99),
			})
		})
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable6 formats the Table 6 reproduction.
func RenderTable6(rows []Table6Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%.0f%%", 100*r.Penalty),
			fmt.Sprintf("%.2f", r.RCCPIx1000),
			fmt.Sprintf("%.2f", r.OccupancyRatio),
			fmt.Sprintf("%.2f%%", 100*r.HWCUtil),
			fmt.Sprintf("%.2f%%", 100*r.PPCUtil),
			fmt.Sprintf("%.0f", r.HWCQueueNs),
			fmt.Sprintf("%.0f", r.PPCQueueNs),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.HWCQueueP50, r.HWCQueueP95, r.HWCQueueP99),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.PPCQueueP50, r.PPCQueueP95, r.PPCQueueP99),
			fmt.Sprintf("%.2f", r.HWCArrivalUs),
			fmt.Sprintf("%.2f", r.PPCArrivalUs),
		})
	}
	return renderTable("Table 6: communication statistics on the base system configuration",
		[]string{"Application", "PP penalty", "1000xRCCPI", "PPC/HWC occ",
			"HWC util", "PPC util", "HWC queue (ns)", "PPC queue (ns)",
			"HWC q p50/95/99 (cyc)", "PPC q p50/95/99 (cyc)",
			"HWC req/us", "PPC req/us"}, out)
}

// Table7Row is one application x architecture row of the two-engine
// statistics (the paper's Table 7).
type Table7Row struct {
	App, Arch  string
	LPEUtil    float64
	RPEUtil    float64
	LPEShare   float64 // fraction of requests handled by the LPE
	RPEShare   float64
	LPEQueueNs float64
	RPEQueueNs float64
}

// Table7 computes the two-engine utilization and distribution statistics.
func (s *Suite) Table7() ([]Table7Row, error) {
	var rows []Table7Row
	var p plan
	for _, app := range workload.PaperApps {
		for _, arch := range []string{"2HWC", "2PPC"} {
			p.add(s.req(app, arch, base()), func(r *stats.Run) {
				rows = append(rows, Table7Row{
					App:        AppLabel(app),
					Arch:       arch,
					LPEUtil:    r.AvgUtilization(0),
					RPEUtil:    r.AvgUtilization(1),
					LPEShare:   r.EngineShare(0),
					RPEShare:   r.EngineShare(1),
					LPEQueueNs: r.AvgQueueDelayNs(0),
					RPEQueueNs: r.AvgQueueDelayNs(1),
				})
			})
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable7 formats the Table 7 reproduction.
func RenderTable7(rows []Table7Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.Arch,
			fmt.Sprintf("%.2f%%", 100*r.LPEUtil),
			fmt.Sprintf("%.2f%%", 100*r.RPEUtil),
			fmt.Sprintf("%.2f%%", 100*r.LPEShare),
			fmt.Sprintf("%.2f%%", 100*r.RPEShare),
			fmt.Sprintf("%.0f", r.LPEQueueNs),
			fmt.Sprintf("%.0f", r.RPEQueueNs),
		})
	}
	return renderTable("Table 7: communication statistics for controllers with two protocol engines",
		[]string{"Application", "Arch", "LPE util", "RPE util",
			"LPE share", "RPE share", "LPE queue (ns)", "RPE queue (ns)"}, out)
}
