package main

import (
	"fmt"
	"time"
)

// runProbes loops every layer's probes for `each` and reports the
// median batch as nanoseconds (or the probe's unit) per item. A probe
// measures one layer's public function in isolation on a level-5-sized
// fixture; it says what the layer costs, not what a workload pays.
func runProbes(cfg runConfig, each time.Duration) (map[string]metric, error) {
	out := map[string]metric{}
	for _, g := range probeGroups() {
		dir, err := scratchDir(cfg)
		if err != nil {
			return nil, err
		}
		probes, done, err := g.setup(dir, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("probe fixture %s: %w", g.layer, err)
		}
		restore := singleP(g.layer == "remote")
		for _, p := range probes {
			var samples []float64
			// Three batches at least, however slow the probed call.
			for start := time.Now(); len(samples) < 3 || time.Since(start) < each; {
				ns, items, err := p.run()
				if err != nil {
					restore()
					done()
					return nil, fmt.Errorf("probe %s: %w", p.name, err)
				}
				samples = append(samples, float64(ns)/float64(items)/p.div)
			}
			out[p.name] = metric{median(samples), p.unit, len(samples)}
		}
		restore()
		done()
	}
	return out, nil
}
