package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointToJournalMigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "study.json")

	// Write a legacy checkpoint file.
	orig := []Trial{mkTrial(0, 2, 0.5), mkTrial(1, 4, 0.9)}
	raw, err := json.Marshal(checkpointFile{Version: 1, Trials: orig})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j := openTestJournal(t, filepath.Join(dir, "j.journal"))
	n, err := MigrateCheckpoint(j, "legacy", ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("migrated %d trials, want 2", n)
	}
	// Idempotent: a second migration imports nothing new.
	if n, err = MigrateCheckpoint(j, "legacy", ckpt); err != nil || n != 0 {
		t.Fatalf("re-migration imported %d (%v)", n, err)
	}

	got, err := j.StudyTrials("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("journal holds %d trials", len(got))
	}
	for i, tr := range got {
		if tr.ID != orig[i].ID || tr.BestAcc != orig[i].BestAcc ||
			tr.Fingerprint != Fingerprint(orig[i].Config) {
			t.Fatalf("trial %d mismatch: %+v vs %+v", i, tr, orig[i])
		}
		if v, ok := tr.Config["num_epochs"].(int); !ok || v != orig[i].Epochs {
			t.Fatalf("trial %d config mangled: %#v", i, tr.Config)
		}
	}
	// Migrated results feed cross-study memoization.
	if hit, found := j.LookupMemo("", Fingerprint(orig[1].Config)); !found || hit.BestAcc != 0.9 {
		t.Fatalf("migrated trial not memoized: %+v found=%v", hit, found)
	}
	j.Close()
}

func TestFingerprintSkipsInternalKeys(t *testing.T) {
	a := Fingerprint(map[string]interface{}{"lr": 0.1, "_bracket": 3})
	b := Fingerprint(map[string]interface{}{"lr": 0.1})
	if a != b {
		t.Fatalf("underscore keys must not affect identity: %q vs %q", a, b)
	}
	if a != "lr=0.1" {
		t.Fatalf("fingerprint format changed: %q", a)
	}
}
