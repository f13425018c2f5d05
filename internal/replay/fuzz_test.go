package replay_test

// Satellite contract: the verifier is total. Arbitrary record
// interleavings — including causally impossible ones — either replay
// cleanly or fail with a typed ErrDivergence/ErrCorrupt; the engine never
// panics, never hangs, and is itself deterministic (same stream, same
// verdict). Wired into the CI fuzz smoke alongside the store fuzzers.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/hpo"
	"repro/internal/replay"
	"repro/internal/store"
)

// fuzzParams are the four decision engines the fuzzer drives, selected by
// the input's first byte. Small budgets keep member regeneration cheap.
func fuzzParams(t *testing.T, selector byte) replay.Params {
	t.Helper()
	switch selector % 4 {
	case 0:
		return replay.Params{Scheduler: "hyperband", RungMode: hpo.RungAsync,
			Space: mustSpace(t, rungSpaceJSON), Budget: 3, Eta: 3, Seed: 7}
	case 1:
		return replay.Params{Scheduler: "asha", Budget: 9, Eta: 3, MinResource: 1}
	case 2:
		return replay.Params{Pruner: "median"}
	default:
		return replay.Params{Pruner: "asha"}
	}
}

// recordsFromBytes decodes a fuzz input into a record stream: each op is a
// 4-byte tuple (kind, trial, epoch, value/budget). Deliberately unchecked —
// the whole point is feeding the verifier streams no journal would write.
func recordsFromBytes(data []byte) []store.StudyRecord {
	var recs []store.StudyRecord
	seq := uint64(1)
	for i := 0; i+3 < len(data); i += 4 {
		kind, tid, epoch, arg := data[i], int(data[i+1]%8), int(data[i+2]%12), data[i+3]
		val := float64(arg) / 255
		switch kind % 6 {
		case 0:
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "metric",
				Metric: &store.MetricPoint{TrialID: tid, Epoch: epoch, Value: val}})
		case 1:
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "prune",
				Prune: &store.PruneDecision{TrialID: tid, Epoch: epoch,
					Reason: fmt.Sprintf("fuzz reason %d", arg%4)}})
		case 2:
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "promote",
				Promote: &store.Promotion{TrialID: tid, Epoch: epoch, Budget: int(arg % 16),
					Reason: fmt.Sprintf("fuzz grant %d", arg%4)}})
		case 3:
			tr := store.Trial{ID: tid, Epochs: epoch,
				Config:   map[string]interface{}{"acc": val, "num_epochs": 1 + int(arg%4)},
				FinalAcc: val, BestAcc: val}
			if arg%5 == 0 {
				tr.Pruned = true
			}
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "trial", Trial: &tr})
		case 4:
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "state", State: store.StateRunning})
		case 5:
			// A payload-less record of a payload-bearing type: the corrupt
			// classifier's bread and butter.
			recs = append(recs, store.StudyRecord{Seq: seq, Type: "prune"})
		}
		seq++
	}
	return recs
}

func FuzzReplayDecisions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 128, 0, 1, 0, 64, 3, 0, 2, 9})
	f.Add([]byte{1, 2, 3, 4, 2, 2, 2, 9, 0, 2, 2, 200})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 128, 3, 0, 3, 3})
	f.Add([]byte{2, 1, 0, 3, 2, 1, 1, 9, 5, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound stream length, not interleaving variety
		}
		var selector byte
		if len(data) > 0 {
			selector = data[0]
		}
		p := fuzzParams(t, selector)
		recs := recordsFromBytes(data)

		rep, err := replay.Verify("fuzz", recs, p)
		if rep == nil {
			t.Fatal("Verify returned no report")
		}
		if err != nil && !errors.Is(err, replay.ErrDivergence) && !errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("untyped verification error: %v", err)
		}

		// The verifier itself is deterministic: same stream, same verdict,
		// same derived log.
		rep2, err2 := replay.Verify("fuzz", recs, p)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("verdict changed between passes: %v vs %v", err, err2)
		}
		if err != nil && err.Error() != err2.Error() {
			t.Fatalf("error changed between passes: %q vs %q", err, err2)
		}
		if !decisionsEqual(rep.Replayed, rep2.Replayed) {
			t.Fatal("replayed log changed between passes")
		}
	})
}
