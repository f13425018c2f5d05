package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// worsening is how much worse b is than a for a metric, as a share of a
// (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareDocs prints, per workload and end-to-end metric, b's worsening
// against a and the metric's bound, and returns how many exceed it. It
// refuses results from different core counts or journal filesystems: the
// numbers depend on both, so a delta between them says nothing about code.
func compareDocs(out io.Writer, a, b resultDoc) (int, error) {
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return 0, fmt.Errorf("refusing to compare: %d cores (GOMAXPROCS %d) vs %d cores (GOMAXPROCS %d)",
			a.Env.NumCPU, a.Env.GOMAXPROCS, b.Env.NumCPU, b.Env.GOMAXPROCS)
	}
	if a.Env.JournalFS != b.Env.JournalFS {
		return 0, fmt.Errorf("refusing to compare: journal on %s vs %s (fsync cost differs)", a.Env.JournalFS, b.Env.JournalFS)
	}
	if a.Seconds != b.Seconds {
		return 0, fmt.Errorf("refusing to compare: %d s vs %d s runs do different work", a.Seconds, b.Seconds)
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	over := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "\n== %s\n", wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			w := worsening(d, va, vb)
			verdict := "ok"
			if w > d.Bound {
				verdict = "WORSE THAN BOUND"
				over++
			}
			fmt.Fprintf(out, "   %-24s %12.4f -> %12.4f %-6s %+7.2f%% worse (bound %.0f%%) %s\n",
				d.Name, va, vb, d.Unit, w*100, d.Bound*100, verdict)
		}
		if wb.Failed > wa.Failed || wb.Refused > wa.Refused {
			fmt.Fprintf(out, "   failed %d -> %d, refused %d -> %d: WORSE (bound +0)\n", wa.Failed, wb.Failed, wa.Refused, wb.Refused)
			over++
		}
		for _, d := range perLayer {
			va, oka := wa.PerLayer[d.Name]
			vb, okb := wb.PerLayer[d.Name]
			if oka && okb && va.Value != 0 {
				fmt.Fprintf(out, "   %-32s %12.4f -> %12.4f %-8s %+7.2f%%\n", d.Name, va.Value, vb.Value, d.Unit, (vb.Value-va.Value)/va.Value*100)
			}
		}
	}
	return over, nil
}

func loadDoc(path string) (resultDoc, error) {
	var d resultDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := loadDoc(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := loadDoc(args[1])
	if err != nil {
		return fail(err)
	}
	over, err := compareDocs(os.Stdout, a, b)
	if err != nil {
		return fail(err)
	}
	if over > 0 {
		return fail(fmt.Errorf("%d metric(s) worse than their bound", over))
	}
	return 0
}

// cmdAA runs two full sets of untraced passes of the same code and holds
// their difference against each metric's bound: the benchmark's own check
// that a bound is wider than its noise.
func cmdAA(args []string) int {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the generated specs and schedule")
	seconds := fs.Int("seconds", 20, "length of each measured window on the reference sandbox")
	name := fs.String("workload", "", "run only this workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx := context.Background()
	h, err := newHarness(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sets [2]resultDoc
	for i := range sets {
		sets[i] = resultDoc{Env: readEnv(h.outDir), Seed: *seed, Seconds: *seconds}
		for _, w := range ws {
			pctx, cancel := context.WithTimeout(ctx, runDeadline)
			_, r, err := h.pass(pctx, w, *seed, *seconds, 1, false)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !r.Correct {
				printWorkload(r)
				return 1
			}
			sets[i].Workloads = append(sets[i].Workloads, r)
		}
	}
	// Both directions: an A/A difference is noise whichever side is "worse".
	over, err := compareDocs(os.Stdout, sets[0], sets[1])
	if err == nil {
		var back int
		back, err = compareDocs(io.Discard, sets[1], sets[0])
		over += back
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if over > 0 {
		fmt.Fprintf(os.Stderr, "bench: A/A disagreement: %d metric(s) differ by more than their bound\n", over)
		return 1
	}
	return 0
}
