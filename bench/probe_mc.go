package main

import (
	"time"

	"repro/internal/mibench"
)

// probeMC times the front end: the six corpus programs, source text to
// RTL. It is the part of every workload's set-up that is the mc layer.
func (r *run) probeMC(parent *span, rep *report) error {
	const reps = 15
	sp := r.tr.begin(parent, "bench", "probe:mc", "")
	defer sp.end()
	var walls []float64
	for i := 0; i < reps; i++ {
		var wall time.Duration
		for _, p := range mibench.All() {
			c := r.tr.begin(sp, "mc", "Program.Compile:"+p.Name, "")
			start := time.Now()
			_, err := p.Compile()
			wall += time.Since(start)
			c.end()
			if err != nil {
				return err
			}
		}
		walls = append(walls, ms(wall))
	}
	rep.set("mc.compile_ms", median(walls))
	return nil
}
