package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// finishStudy drives one study through a full lifecycle: trials recorded
// with per-epoch metric telemetry, then a terminal state.
func finishStudy(t *testing.T, j *Journal, id string, trials, metricsPerTrial int, state StudyState) {
	t.Helper()
	if err := j.CreateStudy(StudyMeta{ID: id}); err != nil {
		t.Fatal(err)
	}
	if err := j.SetStudyState(id, StateRunning, "", nil); err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < trials; tr++ {
		for e := 0; e < metricsPerTrial; e++ {
			if err := j.AppendMetric(id, tr, e, 0.1*float64(e)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.AppendTrials(id, []Trial{mkTrial(tr, tr+2, 0.5+0.01*float64(tr))}); err != nil {
			t.Fatal(err)
		}
	}
	if state.Terminal() {
		if err := j.SetStudyState(id, state, "", &Summary{Trials: trials, BestAcc: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentRecordCount counts JSONL records across a study's on-disk
// segment files.
func segmentRecordCount(t *testing.T, journalDir, study string) int {
	t.Helper()
	entries, err := os.ReadDir(studyDir(journalDir, study))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !isSegmentFileName(e.Name()) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(studyDir(journalDir, study), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(raw, []byte("\n"))
	}
	return n
}

// TestCompactRewritesTerminalStudies is the acceptance path: a journal
// with 50 terminal studies full of per-epoch metrics compacts down to
// summary records — boot replay reads only live-study segments plus
// terminal summaries — and no acknowledged trial result or final metric is
// lost across a reopen.
func TestCompactRewritesTerminalStudies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	const terminal, trialsPer, metricsPer = 50, 3, 40
	for s := 0; s < terminal; s++ {
		finishStudy(t, j, fmt.Sprintf("done-%02d", s), trialsPer, metricsPer, StateDone)
	}
	finishStudy(t, j, "live-a", 2, 25, StateRunning)
	finishStudy(t, j, "live-b", 1, 25, StateRunning)

	delta, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if delta.StudiesCompacted != terminal {
		t.Fatalf("compacted %d studies, want %d", delta.StudiesCompacted, terminal)
	}
	if delta.RecordsDropped == 0 || delta.SegmentsRemoved == 0 || delta.BytesReclaimed == 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", delta)
	}
	// Idempotent: a second run finds nothing to do.
	delta2, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if delta2.StudiesCompacted != 0 {
		t.Fatalf("second compaction rewrote %d studies", delta2.StudiesCompacted)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// On disk: every terminal study is exactly its summary records (one
	// study record + one per trial); live studies keep their full history
	// including metric telemetry.
	for s := 0; s < terminal; s++ {
		id := fmt.Sprintf("done-%02d", s)
		if got := segmentRecordCount(t, path, id); got != 1+trialsPer {
			t.Fatalf("study %s holds %d records on disk, want %d", id, got, 1+trialsPer)
		}
	}
	if got := segmentRecordCount(t, path, "live-a"); got <= 2+2*25 {
		t.Fatalf("live study lost history: %d records", got)
	}

	// Replay: metadata, trials and the memo index all survive.
	j2 := openTestJournal(t, path)
	defer j2.Close()
	for s := 0; s < terminal; s++ {
		id := fmt.Sprintf("done-%02d", s)
		meta, err := j2.GetStudy(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.State != StateDone || meta.Trials != trialsPer || meta.BestAcc != 0.9 {
			t.Fatalf("study %s replayed meta = %+v", id, meta)
		}
		trials, err := j2.StudyTrials(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) != trialsPer {
			t.Fatalf("study %s replayed %d trials, want %d", id, len(trials), trialsPer)
		}
		for i, tr := range trials {
			if tr.FinalAcc != 0.5+0.01*float64(i) || len(tr.ValAccHistory) == 0 {
				t.Fatalf("study %s trial %d lost final metrics: %+v", id, i, tr)
			}
		}
	}
	if _, hit := j2.LookupMemo("", Fingerprint(mkTrial(0, 2, 0.5).Config)); !hit {
		t.Fatal("memo index lost across compaction + replay")
	}
	// Live studies keep streaming history.
	events, _ := j2.EventsSince("live-a", 0)
	metrics := 0
	for _, ev := range events {
		if ev.Type == "metric" {
			metrics++
		}
	}
	if metrics == 0 {
		t.Fatal("live study lost metric events in replay")
	}
}

// TestCompactionCrashBeforeManifestCommit: a compacted segment written but
// never committed to the manifest (kill between the segment rewrite and
// the manifest swap) must be ignored and deleted on the next open — the
// old segments stay authoritative.
func TestCompactionCrashBeforeManifestCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	finishStudy(t, j, "a", 2, 10, StateDone)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: an orphan higher-numbered segment exists with
	// content that must never be believed.
	orphan := filepath.Join(studyDir(path, "a"), segmentFileName(2))
	bogus := `{"seq":999,"type":"trial","study_id":"a","trial":{"id":777,"config":{"x":1},"final_acc":1}}` + "\n"
	if err := os.WriteFile(orphan, []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("recovered %d trials, want 2 (orphan segment believed?)", len(trials))
	}
	for _, tr := range trials {
		if tr.ID == 777 {
			t.Fatal("uncommitted compaction segment replayed")
		}
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan segment not pruned on open: %v", err)
	}
}

// TestCompactionCrashAfterManifestCommit: once the manifest lists only the
// compacted segment, leftover pre-compaction files (kill between the
// manifest swap and the unlink pass) are stale debris — the next open
// serves the compacted view and deletes them.
func TestCompactionCrashAfterManifestCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	finishStudy(t, j, "a", 2, 10, StateDone)
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect an "old" segment file as if the unlink never ran. Give it
	// content that would corrupt the study if replayed.
	stale := filepath.Join(studyDir(path, "a"), segmentFileName(1))
	bogus := `{"seq":1,"type":"trial","study_id":"a","trial":{"id":888,"config":{"y":2},"final_acc":1}}` + "\n"
	if err := os.WriteFile(stale, []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("recovered %d trials, want 2", len(trials))
	}
	for _, tr := range trials {
		if tr.ID == 888 {
			t.Fatal("stale pre-compaction segment replayed")
		}
	}
	meta, err := j2.GetStudy("a")
	if err != nil || meta.State != StateDone {
		t.Fatalf("compacted meta lost: %+v, %v", meta, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale segment not pruned on open: %v", err)
	}
}

// TestCompactLeavesLiveStudiesAlone: compaction must never touch a study
// that can still record trials.
func TestCompactLeavesLiveStudiesAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	defer j.Close()
	finishStudy(t, j, "running", 2, 10, StateRunning)
	delta, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if delta.StudiesCompacted != 0 || delta.SegmentsRemoved != 0 {
		t.Fatalf("compaction touched a live study: %+v", delta)
	}
	events, _ := j.EventsSince("running", 0)
	metrics := 0
	for _, ev := range events {
		if ev.Type == "metric" {
			metrics++
		}
	}
	if metrics != 2*10 {
		t.Fatalf("live study metrics = %d, want 20", metrics)
	}
}

// TestCompactedStudyCanRestart: a terminal study compacted to summaries
// can still be re-started — new trials append to the compacted segment and
// resumed trials dedup against the replayed summary records.
func TestCompactedStudyCanRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	finishStudy(t, j, "a", 2, 10, StateDone)
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openTestJournal(t, path)
	defer j2.Close()
	if err := j2.SetStudyState("a", StateRunning, "", nil); err != nil {
		t.Fatal(err)
	}
	// A resumed duplicate is skipped; a genuinely new trial is recorded.
	if err := j2.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5), mkTrial(9, 9, 0.8)}); err != nil {
		t.Fatal(err)
	}
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 3 {
		t.Fatalf("post-restart trials = %d, want 3 (2 compacted + 1 new)", len(trials))
	}
}

// TestReplaySkipsTerminalStudyMetrics: even without compaction, boot
// replay must not mirror a terminal study's per-epoch metrics into memory
// — only live studies need their telemetry addressable for SSE resume.
func TestReplaySkipsTerminalStudyMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, path)
	finishStudy(t, j, "done", 2, 15, StateDone)
	finishStudy(t, j, "live", 2, 15, StateRunning)
	j.Close()

	j2 := openTestJournal(t, path)
	defer j2.Close()
	count := func(id string) (metrics, trials int) {
		events, _ := j2.EventsSince(id, 0)
		for _, ev := range events {
			switch ev.Type {
			case "metric":
				metrics++
			case "trial":
				trials++
			}
		}
		return
	}
	if m, tr := count("done"); m != 0 || tr != 2 {
		t.Fatalf("terminal study replayed metrics=%d trials=%d, want 0/2", m, tr)
	}
	if m, tr := count("live"); m != 30 || tr != 2 {
		t.Fatalf("live study replayed metrics=%d trials=%d, want 30/2", m, tr)
	}
}

// TestSegmentRotation: a study's segment rotates once it crosses the size
// threshold; every rotated segment replays.
func TestSegmentRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path, JournalOptions{NoSync: true, MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := j.AppendTrials("a", []Trial{mkTrial(i, i+1, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	entries, err := os.ReadDir(studyDir(path, "a"))
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if isSegmentFileName(e.Name()) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("rotation produced %d segments, want several", segs)
	}
	j2 := openTestJournal(t, path)
	defer j2.Close()
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != n {
		t.Fatalf("replayed %d/%d trials across rotated segments", len(trials), n)
	}
}

// TestMissingSealedSegmentIsCorruption: a sealed (non-active) segment was
// fsynced before its manifest commit, so its absence is lost acknowledged
// data — the open must refuse, not silently serve a partial study.
func TestMissingSealedSegmentIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path, JournalOptions{NoSync: true, MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := j.AppendTrials("a", []Trial{mkTrial(i, i+1, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if err := os.Remove(filepath.Join(studyDir(path, "a"), segmentFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, JournalOptions{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing sealed segment opened as %v, want ErrCorrupt", err)
	}
}

// TestMetricAppendsDoNotRotate: rotation fsyncs, and the no-sync telemetry
// path is documented to never wait on the disk — an oversized active
// segment rotates only on the study's next durable append.
func TestMetricAppendsDoNotRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path, JournalOptions{NoSync: true, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 100; e++ {
		if err := j.AppendMetric("a", 0, e, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if segs := len(j.seg["a"].nums); segs != 1 {
		t.Fatalf("metric-only appends rotated to %d segments", segs)
	}
	// The next durable append seals the oversized segment.
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if segs := len(j.seg["a"].nums); segs < 2 {
		t.Fatalf("durable append did not rotate the oversized segment (%d segments)", segs)
	}
}

// TestOpenJournalRejectsFile: a regular file at the journal path — such as
// a pre-shard single-file journal — is refused as corrupt, and its bytes
// are left exactly as they were.
func TestOpenJournalRejectsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hpod.journal")
	legacy := []byte(`{"seq":1,"type":"study","study_id":"a","study":{"id":"a","state":"created"}}` + "\n")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, JournalOptions{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenJournal on a file = %v, want ErrCorrupt", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("refused file changed: %q (%v)", got, err)
	}
}

// TestStudyIDsAreValidated: ids double as directory names, so path-hostile
// ids must be rejected before they reach the filesystem.
func TestStudyIDsAreValidated(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "j"))
	defer j.Close()
	for _, id := range []string{"../evil", "a/b", ".", "..", "", "a b", strings.Repeat("x", 200)} {
		if err := j.CreateStudy(StudyMeta{ID: id}); err == nil {
			t.Fatalf("id %q accepted", id)
		} else if errors.Is(err, ErrExists) {
			t.Fatalf("id %q mis-classified: %v", id, err)
		}
	}
	if err := j.CreateStudy(StudyMeta{ID: "ok-id_1.2"}); err != nil {
		t.Fatalf("benign id rejected: %v", err)
	}
}

// TestJournalStats: Stats reflects the index and accumulates compaction
// counters.
func TestJournalStats(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "j"))
	defer j.Close()
	finishStudy(t, j, "a", 2, 5, StateDone)
	st := j.Stats()
	if st.Studies != 1 || st.Segments != 1 || st.EventsRetained == 0 || st.Seq == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st = j.Stats()
	if st.Compaction.Runs != 1 || st.Compaction.StudiesCompacted != 1 {
		t.Fatalf("compaction stats = %+v", st.Compaction)
	}
}
