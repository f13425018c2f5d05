package server

import "repro/internal/hpo"

// Admission exposes the runner's admission queue to tests.
func (r *Runner) Admission() *hpo.AdmissionQueue { return r.adm }
