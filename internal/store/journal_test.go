package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mkTrial(id, epochs int, acc float64) Trial {
	return Trial{
		ID:       id,
		Config:   map[string]interface{}{"num_epochs": epochs, "optimizer": "Adam"},
		FinalAcc: acc, BestAcc: acc, Epochs: epochs,
		ValAccHistory: []float64{acc / 2, acc},
		DurationNS:    12345,
	}
}

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// activeSegment returns the path of a study's highest-numbered (active)
// segment file — the one crash tests tear bytes off.
func activeSegment(t *testing.T, journalDir, study string) string {
	t.Helper()
	dir := studyDir(journalDir, study)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if isSegmentFileName(e.Name()) && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatalf("no segment files under %s", dir)
	}
	return filepath.Join(dir, last)
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	if err := j.CreateStudy(StudyMeta{ID: "a", Name: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateStudy(StudyMeta{ID: "a"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := j.GetStudy("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing study: %v", err)
	}
	if err := j.SetStudyState("a", StateRunning, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5), mkTrial(1, 4, 0.7)}); err != nil {
		t.Fatal(err)
	}
	if err := j.SetStudyState("a", StateDone, "", &Summary{Trials: 2, BestAcc: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateStudy(StudyMeta{ID: "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}

	// Reopen: everything replays, including integer config types.
	j2 := openTestJournal(t, path)
	defer j2.Close()
	meta, err := j2.GetStudy("a")
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateDone || meta.Trials != 2 || meta.BestAcc != 0.7 || meta.Name != "alpha" {
		t.Fatalf("replayed meta = %+v", meta)
	}
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("replayed %d trials", len(trials))
	}
	if v, ok := trials[0].Config["num_epochs"].(int); !ok || v != 2 {
		t.Fatalf("config ints lost in replay: %#v", trials[0].Config)
	}
	if len(trials[1].ValAccHistory) != 2 {
		t.Fatalf("history lost: %+v", trials[1])
	}
}

func TestJournalCrashRecoveryTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5), mkTrial(1, 4, 0.7)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the last record of the
	// study's active segment.
	seg := activeSegment(t, path, "a")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)-25]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 || trials[0].ID != 0 {
		t.Fatalf("recovered trials = %+v", trials)
	}
	// The torn tail was truncated away, so appending resumes cleanly.
	if err := j2.AppendTrials("a", []Trial{mkTrial(1, 4, 0.7)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, path)
	defer j3.Close()
	trials, _ = j3.StudyTrials("a")
	if len(trials) != 2 {
		t.Fatalf("after recovery+append: %d trials", len(trials))
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	seg := activeSegment(t, path, "a")
	raw, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(raw), "\n")
	lines[0] = "garbage not json\n"
	os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644)
	if _, err := OpenJournal(path, JournalOptions{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: %v", err)
	}
}

func TestJournalMemoizationHitAndMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	ok := mkTrial(0, 2, 0.9)
	failed := mkTrial(1, 8, 0)
	failed.Err = "boom"
	if err := j.AppendTrials("a", []Trial{ok, failed}); err != nil {
		t.Fatal(err)
	}

	// Hit: same fingerprint from a different study's recorder.
	if err := j.CreateStudy(StudyMeta{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	rec := j.Recorder("b", "")
	memo, isMemo := rec.(Memoizer)
	if !isMemo {
		t.Fatal("journal recorder should implement Memoizer")
	}
	hit, found := memo.Lookup(Fingerprint(ok.Config))
	if !found || hit.BestAcc != 0.9 {
		t.Fatalf("memo hit = %+v found=%v", hit, found)
	}
	// Miss: failed trials never enter the memo index.
	if _, found := memo.Lookup(Fingerprint(failed.Config)); found {
		t.Fatal("failed trial must not be memoized")
	}
	// Miss: unseen fingerprint.
	if _, found := memo.Lookup("optimizer=SGD"); found {
		t.Fatal("unexpected memo hit")
	}
}

func TestJournalMemoizationIsScoped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "mnist"}); err != nil {
		t.Fatal(err)
	}
	mnistScope := MemoScope("mnist", 800, 0, []int{32}, 1, 0)
	if err := j.Recorder("mnist", mnistScope).Record([]Trial{mkTrial(0, 2, 0.9)}); err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(mkTrial(0, 2, 0.9).Config)

	// Same scope hits; a different objective (other dataset) must miss even
	// for an identical config.
	if _, found := j.LookupMemo(mnistScope, fp); !found {
		t.Fatal("same-scope lookup missed")
	}
	cifarScope := MemoScope("cifar10", 800, 0, []int{32}, 1, 0)
	if _, found := j.LookupMemo(cifarScope, fp); found {
		t.Fatal("memo leaked across objective scopes")
	}

	// Scope survives replay.
	j.Close()
	j2 := openTestJournal(t, path)
	defer j2.Close()
	if _, found := j2.LookupMemo(mnistScope, fp); !found {
		t.Fatal("scope lost in replay")
	}
	if _, found := j2.LookupMemo(cifarScope, fp); found {
		t.Fatal("replay widened the memo scope")
	}
}

func TestJournalDropsUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5), mkTrial(1, 4, 0.7)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Crash that flushed the last record's JSON but not its newline: the
	// record parses, yet keeping it would make the next O_APPEND write
	// concatenate onto the same line. It must be dropped and truncated.
	seg := activeSegment(t, path, "a")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, path)
	trials, err := j2.StudyTrials("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 {
		t.Fatalf("unterminated tail kept: %d trials", len(trials))
	}
	// Appending and reopening must stay parseable — the regression this
	// guards is a concatenated '}{' line corrupting the journal for good.
	if err := j2.AppendTrials("a", []Trial{mkTrial(1, 4, 0.7)}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatalf("journal corrupted after tail recovery: %v", err)
	}
	defer j3.Close()
	if trials, _ = j3.StudyTrials("a"); len(trials) != 2 {
		t.Fatalf("post-recovery trials = %d", len(trials))
	}
}

func TestJournalAppendDedupsResumedTrials(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := mkTrial(0, 2, 0.5)
	for i := 0; i < 3; i++ {
		if err := j.AppendTrials("a", []Trial{tr}); err != nil {
			t.Fatal(err)
		}
	}
	trials, _ := j.StudyTrials("a")
	if len(trials) != 1 {
		t.Fatalf("resumed re-record duplicated: %d entries", len(trials))
	}
}

// TestJournalAppendKeepsDistinctTrialsOfOneConfig: a sampler that runs
// out of distinct configs proposes one again under a fresh trial id. That
// is a second trial, not a resumed copy: its record must persist even
// though the config already has a successful record.
func TestJournalAppendKeepsDistinctTrialsOfOneConfig(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "j.journal"))
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	again := mkTrial(7, 2, 0.3)
	again.Pruned = true
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5), mkTrial(3, 2, 0.5), again}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5)}); err != nil {
		t.Fatal(err)
	}
	trials, _ := j.StudyTrials("a")
	var ids []int
	for _, tr := range trials {
		ids = append(ids, tr.ID)
	}
	if fmt.Sprint(ids) != "[0 3 7]" {
		t.Fatalf("recorded trial ids %v, want [0 3 7]", ids)
	}
}

func TestJournalEventsAndWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	events, tail := j.EventsSince("a", 0)
	if len(events) != 1 || events[0].Type != "study" {
		t.Fatalf("initial events = %+v", events)
	}

	watch := j.Watch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-watch // closed on next append
	}()
	if err := j.AppendTrials("a", []Trial{mkTrial(0, 2, 0.5)}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	events, _ = j.EventsSince("a", tail)
	if len(events) != 1 || events[0].Type != "trial" || events[0].Trial == nil {
		t.Fatalf("incremental events = %+v", events)
	}
}

func TestJournalRecorderResumeIsScoped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	defer j.Close()
	if err := j.CreateStudy(StudyMeta{ID: "cli"}); err != nil {
		t.Fatal(err)
	}
	mnist := MemoScope("mnist", 800, 0, []int{32}, 1, 0)
	cifar := MemoScope("cifar10", 800, 0, []int{32}, 1, 0)
	if err := j.Recorder("cli", mnist).Record([]Trial{mkTrial(0, 2, 0.9)}); err != nil {
		t.Fatal(err)
	}

	// Same study id, same scope: resumes.
	got, err := j.Recorder("cli", mnist).Load()
	if err != nil || len(got) != 1 {
		t.Fatalf("same-scope load = %v, %v", got, err)
	}
	// Same study id reused with a different objective: nothing to resume —
	// the mnist result must not masquerade as a cifar one.
	got, err = j.Recorder("cli", cifar).Load()
	if err != nil || len(got) != 0 {
		t.Fatalf("cross-scope load leaked %d trials (%v)", len(got), err)
	}
	// Scope-less legacy trials (checkpoint migrations) resume everywhere.
	legacy := mkTrial(9, 6, 0.4)
	if err := j.AppendTrials("cli", []Trial{legacy}); err != nil {
		t.Fatal(err)
	}
	got, _ = j.Recorder("cli", cifar).Load()
	if len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("legacy trial dropped: %v", got)
	}
}

func TestJournalSingleWriterLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j := openTestJournal(t, path)
	if _, err := OpenJournal(path, JournalOptions{NoSync: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer must be rejected, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the file handle: a new writer may take over.
	j2, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	j2.Close()
}

func TestJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path, JournalOptions{}) // real fsync: exercise group commit
	if err != nil {
		t.Fatal(err)
	}
	const studies, perStudy = 4, 8
	for s := 0; s < studies; s++ {
		if err := j.CreateStudy(StudyMeta{ID: string(rune('a' + s))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < studies; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := string(rune('a' + s))
			for i := 0; i < perStudy; i++ {
				tr := mkTrial(i, i+100*s, 0.5)
				if err := j.AppendTrials(id, []Trial{tr}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, path)
	defer j2.Close()
	for s := 0; s < studies; s++ {
		trials, err := j2.StudyTrials(string(rune('a' + s)))
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) != perStudy {
			t.Fatalf("study %d replayed %d/%d trials", s, len(trials), perStudy)
		}
	}
}
