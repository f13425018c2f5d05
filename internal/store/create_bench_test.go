package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// BenchmarkAppendMetricDuringCreate measures how long a running study's
// epoch report waits while other studies are created, as in a daemon that
// admits new studies while older ones train. One goroutine appends a metric
// every 50 µs while the loop creates b.N studies, fsync on as in hpod.
// CreateStudy rebuilds, writes and fsyncs the manifest of every study ever
// created while it holds the journal lock, so the append's tail grows with
// the study count. Reported: the append's p50, p99 and max wait, and the
// share of the run it spent waiting.
func BenchmarkAppendMetricDuringCreate(b *testing.B) {
	j, err := OpenJournal(filepath.Join(b.TempDir(), "j"), JournalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "live"}); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan []time.Duration)
	go func() {
		var waits []time.Duration
		tick := time.NewTicker(50 * time.Microsecond)
		defer tick.Stop()
		for e := 0; ; e++ {
			select {
			case <-stop:
				done <- waits
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if err := j.AppendMetric("live", 0, e, 0.5); err != nil {
				b.Error(err)
			}
			waits = append(waits, time.Since(t0))
		}
	}()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.CreateStudy(StudyMeta{ID: fmt.Sprintf("s-%07d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)
	waits := <-done
	if len(waits) == 0 {
		return
	}
	sort.Slice(waits, func(a, c int) bool { return waits[a] < waits[c] })
	var blocked time.Duration
	for _, w := range waits {
		blocked += w
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(us(waits[len(waits)/2]), "append-p50-µs")
	b.ReportMetric(us(waits[len(waits)*99/100]), "append-p99-µs")
	b.ReportMetric(us(waits[len(waits)-1]), "append-max-µs")
	b.ReportMetric(float64(blocked)/float64(elapsed), "blocked-share")
}
