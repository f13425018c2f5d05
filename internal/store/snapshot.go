package store

import (
	"fmt"
	"slices"
)

// Snapshot reading: a read-only view of one study's record stream taken
// straight from the journal directory, without opening the journal (no
// flock, no index replay, no writes). This is what offline verifiers need
// — `hpo replay` must be able to re-derive a study's decisions while the
// daemon still holds the directory's LOCK.
//
// Segments are read exactly like Journal.StudyRecords (readStudySegments).
// Because the writer may rotate or compact segments between our manifest
// read and the file reads, a missing sealed segment triggers one full
// retry from the manifest before it is reported as corruption.

// SnapshotStudyRecords reads one study's records from the journal
// directory at dir without acquiring the journal lock. It returns the
// study's reconstructed metadata (folded from its study/state records, so
// Spec and the latest known State are available) and the record stream in
// sequence order, decoded exactly like Journal.StudyRecords. ErrNotFound
// is returned when the manifest does not list the study.
func SnapshotStudyRecords(dir, id string) (StudyMeta, []StudyRecord, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		meta, recs, err := snapshotOnce(dir, id)
		if err == nil {
			return meta, recs, nil
		}
		lastErr = err
	}
	return StudyMeta{}, nil, lastErr
}

// snapshotOnce is one manifest-read → segment-read pass.
func snapshotOnce(dir, id string) (StudyMeta, []StudyRecord, error) {
	m, ok, err := readManifest(dir)
	if err != nil {
		return StudyMeta{}, nil, err
	}
	if !ok {
		return StudyMeta{}, nil, fmt.Errorf("%w: no journal at %s", ErrNotFound, dir)
	}
	i := slices.IndexFunc(m.Studies, func(ms manifestStudy) bool { return ms.ID == id })
	if i < 0 {
		return StudyMeta{}, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	recs, _, _, err := readStudySegments(studyDir(dir, id), m.Studies[i].Segments)
	if err != nil {
		return StudyMeta{}, nil, err
	}
	meta := StudyMeta{ID: id}
	for _, rec := range recs {
		// Fold study/state records into the meta exactly like the journal's
		// in-memory index (Journal.apply).
		switch rec.Type {
		case recStudy:
			if rec.Study != nil {
				meta = *rec.Study
				if meta.State == "" {
					meta.State = StateCreated
				}
			}
		case recState:
			if rec.State != "" {
				meta.applyState(rec)
			}
		default:
			// Trial/metric/prune/promote records carry no study meta.
		}
	}
	return meta, studyRecords(recs), nil
}
