package store

import (
	"encoding/json"
	"fmt"
	"os"
)

// checkpointFile is the JSON schema of a legacy single-study checkpoint —
// the format internal/hpo wrote before the journal existed. Only
// MigrateCheckpoint (`hpod -migrate`) reads it; nothing writes it.
type checkpointFile struct {
	Version int     `json:"version"`
	Trials  []Trial `json:"trials"`
}

// DecodeCheckpoint parses the legacy checkpoint file format, restoring
// integer config values lost to JSON.
func DecodeCheckpoint(raw []byte) ([]Trial, error) {
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("store: parsing checkpoint: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("store: unsupported checkpoint version %d", f.Version)
	}
	out := make([]Trial, 0, len(f.Trials))
	for _, t := range f.Trials {
		t.Config = NormaliseConfig(t.Config)
		t.Fingerprint = fingerprintOf(t)
		out = append(out, t)
	}
	return out, nil
}

// journalRecorder adapts one study of a Journal to the Recorder interface
// (plus Memoizer for cross-study reuse).
type journalRecorder struct {
	j     *Journal
	id    string
	scope string
}

// Recorder returns a study-scoped Recorder backed by the journal. The
// returned value also implements Memoizer, so studies recording through it
// reuse identical configs already solved by other studies — but only
// within the same objective scope: scope must identify everything besides
// the config that determines a trial's result (dataset, sample count,
// model widths, seed, target). Trials recorded through this recorder are
// stamped with the scope.
func (j *Journal) Recorder(studyID, scope string) Recorder {
	return &journalRecorder{j: j, id: studyID, scope: scope}
}

// Load restores the study's trials for resume, dropping trials recorded
// under a different objective scope: re-using a study id with a changed
// objective (e.g. `hpo -journal j -study cli` first with -dataset mnist,
// then cifar10) must re-execute rather than silently resume results from
// the wrong dataset. Scope-less trials (legacy checkpoint migrations) are
// kept — they predate scoping and belong to whatever study imported them.
func (r *journalRecorder) Load() ([]Trial, error) {
	trials, err := r.j.StudyTrials(r.id)
	if err != nil {
		return nil, err
	}
	kept := trials[:0]
	for _, t := range trials {
		if t.Scope == r.scope || t.Scope == "" {
			kept = append(kept, t)
		}
	}
	return kept, nil
}

func (r *journalRecorder) Record(trials []Trial) error {
	stamped := make([]Trial, len(trials))
	for i, t := range trials {
		t.Scope = r.scope
		stamped[i] = t
	}
	return r.j.AppendTrials(r.id, stamped)
}

func (r *journalRecorder) Lookup(fp string) (Trial, bool) { return r.j.LookupMemo(r.scope, fp) }

// RecordMetric implements MetricRecorder: intermediate epoch metrics land
// in the journal (and its event stream) as they happen.
func (r *journalRecorder) RecordMetric(trialID, epoch int, value float64) error {
	return r.j.AppendMetric(r.id, trialID, epoch, value)
}

// RecordPrune implements MetricRecorder.
func (r *journalRecorder) RecordPrune(trialID, epoch int, reason string) error {
	return r.j.AppendPrune(r.id, trialID, epoch, reason)
}

// RecordPromote implements MetricRecorder: rung promotions are journaled so
// a resumed study replays its rung decisions.
func (r *journalRecorder) RecordPromote(trialID, epoch, budget int, reason string) error {
	return r.j.AppendPromote(r.id, trialID, epoch, budget, reason)
}

// MigrateCheckpoint imports a legacy checkpoint file into the journal under
// studyID, creating the study when absent. It returns the number of trials
// imported (already-recorded fingerprints are skipped), so re-running a
// migration is harmless.
func MigrateCheckpoint(j *Journal, studyID, checkpointPath string) (int, error) {
	raw, err := os.ReadFile(checkpointPath)
	if err != nil {
		return 0, fmt.Errorf("store: reading checkpoint for migration: %w", err)
	}
	trials, err := DecodeCheckpoint(raw)
	if err != nil {
		return 0, err
	}
	if _, err := j.GetStudy(studyID); err != nil {
		meta := StudyMeta{ID: studyID, Name: studyID, State: StateDone}
		if err := j.CreateStudy(meta); err != nil {
			return 0, err
		}
	}
	before, err := j.StudyTrials(studyID)
	if err != nil {
		return 0, err
	}
	if err := j.AppendTrials(studyID, trials); err != nil {
		return 0, err
	}
	after, _ := j.StudyTrials(studyID)
	return len(after) - len(before), nil
}
