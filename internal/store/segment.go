package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The sharded journal lives in a directory (see docs/JOURNAL.md for the
// normative spec):
//
//	<dir>/
//	  MANIFEST.json          commit point: the set of live segments per study
//	  LOCK                   flock'd single-writer guard
//	  studies/<id>/segment-NNNNNN.jsonl
//
// Records are JSONL lines; segments partition them by study. The manifest
// is rewritten atomically (write temp + rename + fsync) and is the source
// of truth for which segment files are live: a segment present on disk but
// absent from the manifest is a leftover from a crashed compaction and is
// deleted on open.

const (
	manifestName   = "MANIFEST.json"
	lockName       = "LOCK"
	studiesDirName = "studies"
	// manifestVersion is bumped on incompatible layout changes; Open refuses
	// versions it does not know.
	manifestVersion = 1
)

// manifest is the on-disk MANIFEST.json schema. Studies are listed in
// creation order; each entry names the live segment numbers, ascending —
// the highest is the active (appendable) segment.
type manifest struct {
	Version int             `json:"version"`
	Studies []manifestStudy `json:"studies"`
}

// manifestStudy is one study's entry in the manifest.
type manifestStudy struct {
	ID       string `json:"id"`
	Segments []int  `json:"segments"`
}

// segmentFileName renders the canonical segment file name for number n.
func segmentFileName(n int) string { return fmt.Sprintf("segment-%06d.jsonl", n) }

// isSegmentFileName reports whether name looks like a live segment file
// (temp files carry a suffix and never match).
func isSegmentFileName(name string) bool {
	return strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".jsonl")
}

// studyDir returns the directory holding a study's segments.
func studyDir(dir, id string) string { return filepath.Join(dir, studiesDirName, id) }

// validStudyID gates ids that double as directory names: path separators,
// traversal and control characters must never reach the filesystem layer.
func validStudyID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// readManifest loads MANIFEST.json; a missing file returns ok=false.
func readManifest(dir string) (manifest, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, false, fmt.Errorf("%w: manifest unparseable: %v", ErrCorrupt, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, false, fmt.Errorf("%w: manifest version %d (this build reads %d)",
			ErrCorrupt, m.Version, manifestVersion)
	}
	return m, true, nil
}

// writeManifest atomically replaces MANIFEST.json: write a temp file, fsync
// it, rename over the manifest, fsync the directory. The rename is the
// commit point for every layout change (study creation, segment rotation,
// compaction).
func writeManifest(dir string, m manifest, noSync bool) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(tmp, append(raw, '\n'), noSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("store: committing manifest: %w", err)
	}
	return syncDir(dir, noSync)
}

// writeFileSync writes path in one shot and fsyncs it (unless noSync).
func writeFileSync(path string, raw []byte, noSync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: fsync %s: %w", filepath.Base(path), err)
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string, noSync bool) error {
	if noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// parseSegment decodes one segment file's records. allowTorn permits a
// half-flushed final record (the signature of a crash mid-append) — only
// the active segment of a study may be torn; anywhere else a bad record is
// corruption. It returns the records and the byte offset just past the last
// good one (the truncation point when torn).
func parseSegment(raw []byte, path string, allowTorn bool) ([]record, int, error) {
	var recs []record
	offset := 0
	for len(raw) > offset {
		rest := raw[offset:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// A record is committed iff newline-terminated. A parseable but
			// unterminated tail must still be dropped: keeping it while
			// appending in O_APPEND mode would concatenate the next record
			// onto the same line and corrupt the segment for good.
			if !allowTorn {
				return nil, 0, fmt.Errorf("%w: unterminated record at byte %d of %s", ErrCorrupt, offset, path)
			}
			break
		}
		var rec record
		if err := json.Unmarshal(rest[:nl], &rec); err != nil || rec.Type == "" {
			// Torn tail: the final line is half-flushed. Anything before it
			// that fails to parse is real corruption.
			if allowTorn && offset+nl+1 >= len(raw) {
				break
			}
			return nil, 0, fmt.Errorf("%w: bad record at byte %d of %s", ErrCorrupt, offset, path)
		}
		recs = append(recs, rec)
		offset += nl + 1
	}
	return recs, offset, nil
}

// pruneStaleSegments deletes segment files in a study's directory that the
// manifest does not list — the debris of a compaction that crashed between
// writing its rewritten segment and committing the manifest (or between
// committing and unlinking the replaced segments). Either way the manifest
// is authoritative and the unlisted files carry no live data.
func pruneStaleSegments(dir string, live []int) (removed int, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	keep := make(map[string]bool, len(live))
	for _, n := range live {
		keep[segmentFileName(n)] = true
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || keep[name] {
			continue
		}
		if !isSegmentFileName(name) && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if rmErr := os.Remove(filepath.Join(dir, name)); rmErr == nil {
			removed++
		}
	}
	return removed, nil
}

// buildManifest renders the in-memory segment table as a manifest, studies
// in creation order.
func buildManifest(order []string, segs map[string]*studySegments) manifest {
	m := manifest{Version: manifestVersion}
	for _, id := range order {
		ss, ok := segs[id]
		if !ok {
			continue
		}
		nums := append([]int(nil), ss.nums...)
		sort.Ints(nums)
		m.Studies = append(m.Studies, manifestStudy{ID: id, Segments: nums})
	}
	return m
}
