// The `hpo replay` verb: offline verification that a study journal's
// recorded scheduler/pruner decisions byte-match a fresh replay of the
// decision logic (docs/JOURNAL.md, "Replay contract"). Reads the journal
// through the lock-free snapshot reader, so it works against a live
// daemon's directory without stopping it.
//
// Daemon-created studies carry their spec in the journal, so
//
//	hpo replay -journal hpod.journal -study <id>
//
// needs nothing else; CLI-created studies journal no spec, so the decision
// flags (-scheduler, -rung-mode, -space, -budget, -eta, -seed, -pruner,
// ...) must repeat what the original run was given; a run with -algo
// hyperband replays with -scheduler hyperband.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/hpo"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/store"
)

type replayOptions struct {
	journal      string
	studyID      string
	scheduler    string
	rungMode     string
	spaceFile    string
	budget       int
	eta          int
	minResource  int
	seed         uint64
	pruner       string
	prunerEta    int
	prunerWarmup int
	target       float64
	quiet        bool
}

func replayMain(args []string) error {
	var o replayOptions
	fs := flag.NewFlagSet("hpo replay", flag.ExitOnError)
	fs.StringVar(&o.journal, "journal", "", "journal directory to verify (required)")
	fs.StringVar(&o.studyID, "study", "cli", "study id within the journal")
	fs.StringVar(&o.scheduler, "scheduler", "", "rung scheduler the study ran with: none | hyperband | asha")
	fs.StringVar(&o.rungMode, "rung-mode", "", "rung mode for -scheduler hyperband (runs with -algo hyperband): sync | async")
	fs.StringVar(&o.spaceFile, "space", "", "search-space JSON file (required for hyperband replays: regenerates sampled configs from -seed)")
	fs.IntVar(&o.budget, "budget", 20, "trial budget of the original run (hyperband: max epochs R)")
	fs.IntVar(&o.eta, "eta", 0, "halving factor of the original run (0 = default 3)")
	fs.IntVar(&o.minResource, "min-resource", 0, "asha first-rung resource of the original run (0 = default)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the original run")
	fs.StringVar(&o.pruner, "pruner", "", "pruner the study ran with: none | median | asha")
	fs.IntVar(&o.prunerEta, "pruner-eta", 0, "pruner halving factor of the original run")
	fs.IntVar(&o.prunerWarmup, "pruner-warmup", 0, "pruner warmup of the original run")
	fs.Float64Var(&o.target, "target", 0, "target accuracy of the original run (0 = off)")
	fs.BoolVar(&o.quiet, "quiet", false, "print only the verdict")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.journal == "" {
		return fmt.Errorf("-journal is required")
	}

	meta, recs, err := store.SnapshotStudyRecords(o.journal, o.studyID)
	if err != nil {
		return err
	}
	params, src, err := replayParams(o, fs, meta)
	if err != nil {
		return err
	}

	rep, verr := replay.Verify(o.studyID, recs, params)
	if !o.quiet && rep != nil {
		fmt.Printf("study %s (%s): %d journal records, params from %s\n",
			o.studyID, meta.State, rep.Records, src)
		fmt.Printf("  mode %s, %d run(s), %d trial(s), %d epoch(s) streamed\n",
			rep.Mode, rep.Runs, rep.Trials, rep.Epochs)
		fmt.Printf("  decisions: %d recorded, %d replayed\n", len(rep.Recorded), len(rep.Replayed))
		for _, w := range rep.Warnings {
			fmt.Printf("  warning: %s\n", w)
		}
	}
	if verr != nil {
		var div *replay.DivergenceError
		if errors.As(verr, &div) && !o.quiet {
			fmt.Print(div.Diff())
		}
		return verr
	}
	fmt.Printf("verified: decision stream replays byte-identically\n")
	return nil
}

// replayParams resolves the decision parameters: explicit decision flags
// win; otherwise a daemon-journaled spec is authoritative; bare CLI
// journals fall back to the flag defaults (matching `hpo` run defaults).
func replayParams(o replayOptions, fs *flag.FlagSet, meta store.StudyMeta) (replay.Params, string, error) {
	flagged := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "journal", "study", "quiet":
		default:
			flagged = true
		}
	})
	if !flagged && len(meta.Spec) > 0 {
		spec, err := server.ParseSpec(meta.Spec)
		if err != nil {
			return replay.Params{}, "", fmt.Errorf("journaled spec: %w", err)
		}
		p, err := spec.ReplayParams("", "", "")
		if err != nil {
			return replay.Params{}, "", err
		}
		return p, "journaled spec", nil
	}

	p := replay.Params{
		Scheduler:    o.scheduler,
		RungMode:     o.rungMode,
		Budget:       o.budget,
		Eta:          o.eta,
		MinResource:  o.minResource,
		Seed:         o.seed,
		Pruner:       o.pruner,
		PrunerEta:    o.prunerEta,
		PrunerWarmup: o.prunerWarmup,
		Target:       o.target,
	}
	if o.spaceFile != "" {
		raw, err := os.ReadFile(o.spaceFile)
		if err != nil {
			return replay.Params{}, "", err
		}
		space, err := hpo.ParseSpaceJSON(raw)
		if err != nil {
			return replay.Params{}, "", fmt.Errorf("%s: %w", o.spaceFile, err)
		}
		p.Space = space
	}
	return p, "flags", nil
}
