package store

// StudyEpochs reports the training epochs a study has consumed: the
// durable total of finished runs plus the metric records of the run in
// flight. Exact across restarts and compaction (the terminal summary and
// compacted study record both carry the number).
func (j *Journal) StudyEpochs(id string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	meta, ok := j.studies[id]
	if !ok {
		return 0
	}
	return meta.EpochsExecuted + j.epochsLive[id]
}
