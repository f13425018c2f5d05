package hpo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// SchedDecision is one rung verdict emitted by a TrialScheduler: Budget > 0
// promotes the trial to that epoch budget (the study extends its running
// task so it keeps training the same model); Budget == 0 halts it through
// the prune path. Epoch is the boundary the decision was made at.
type SchedDecision struct {
	TrialID int
	Budget  int
	Epoch   int
	Reason  string
}

// TrialScheduler is a study's one decision engine over the live trial
// report stream: trials are submitted once with an initial budget,
// observed epoch by epoch, halted when they lose, and promoted — continued
// past their initial budget on the same worker — when they win. A pruner
// (NewPruner) is a TrialScheduler that never promotes. Implementations
// must be safe for concurrent use: reports arrive from task goroutines and
// transport read loops at once.
type TrialScheduler interface {
	// Name identifies the engine ("hyperband-rung", "asha-promote",
	// "median", "asha") in journaled reasons and metric labels.
	Name() string
	// MaxBudget is the epoch ceiling any trial may be promoted to; the
	// study stamps it into submitted configs (hidden "_hb_max" key) so the
	// executing task plans its loop for it.
	MaxBudget() int
	// Admit binds a submitted trial id to its config and initial epoch
	// budget before the first report can arrive.
	Admit(trialID, budget int, cfg Config)
	// Observe records trial's metric at epoch (0-based) and returns any
	// rung decisions that became ready.
	Observe(trialID, epoch int, value float64) []SchedDecision
	// Complete marks a trial terminal with its final result (nil when the
	// task produced none); exits can complete a rung, so decisions may be
	// returned here too.
	Complete(trialID int, res *TrialResult) []SchedDecision
}

// KnownScheduler reports whether name is a recognised trial-scheduler name
// (daemon flags validate at boot without building one).
func KnownScheduler(name string) bool {
	switch name {
	case "", "none", "hyperband", "asha":
		return true
	}
	return false
}

// Rung modes: how a rung-driven Hyperband settles its rung boundaries.
//
//	sync  — barrier rungs: every member of a rung must reach its boundary
//	        before any promotion/halt is decided. Promotes exactly Li et
//	        al.'s successive-halving sets, but requires the runtime to
//	        hold a whole bracket concurrently (MinSlots).
//	async — non-barrier (ASHA-style) rungs: each member is decided the
//	        moment it arrives at its boundary, ranked against the values
//	        recorded at that rung so far. Runs on any capacity — down to a
//	        single slot — and lets independent brackets execute in
//	        parallel, at the cost of slightly greedier early promotions.
const (
	RungSync  = "sync"
	RungAsync = "async"
)

// KnownRungMode reports whether mode is a recognised rung mode ("" means
// "use the default", currently sync).
func KnownRungMode(mode string) bool {
	switch mode {
	case "", RungSync, RungAsync:
		return true
	}
	return false
}

// NewTrialScheduler builds a rung-driven scheduler by name. "" and "none"
// mean no scheduler (all nils). "hyperband" returns a RungHyperband, which
// is both the study's sampler and its scheduler; budget is R and eta the
// halving factor; mode selects barrier ("sync", the default) or
// non-barrier ("async") rung decisions. "asha" returns a sampler-agnostic
// ASHA promotion scheduler (the returned sampler is nil: keep the
// configured one); minResource is the first rung and budget the promotion
// ceiling. ASHA is inherently asynchronous, so requesting mode "sync" for
// it is an error.
func NewTrialScheduler(name string, space *Space, budget, eta, minResource int, seed uint64, mode string) (Sampler, TrialScheduler, error) {
	if !KnownRungMode(mode) {
		return nil, nil, fmt.Errorf("hpo: unknown rung mode %q (want sync or async)", mode)
	}
	switch name {
	case "", "none":
		if mode != "" {
			// An explicit rung mode with no scheduler to apply it to is a
			// misconfiguration (most likely a forgotten -scheduler flag),
			// not something to drop silently.
			return nil, nil, fmt.Errorf("hpo: rung mode %q needs an active rung scheduler (hyperband or asha), got %q", mode, name)
		}
		return nil, nil, nil
	case "hyperband":
		if mode == RungAsync {
			rh := NewRungHyperbandAsync(space, budget, eta, seed)
			return rh, rh, nil
		}
		rh := NewRungHyperband(space, budget, eta, seed)
		return rh, rh, nil
	case "asha":
		if mode == RungSync {
			return nil, nil, fmt.Errorf("hpo: scheduler %q has no synchronous mode (its decisions are per-arrival)", name)
		}
		return nil, NewASHAScheduler(eta, minResource, budget), nil
	default:
		return nil, nil, fmt.Errorf("hpo: unknown scheduler %q (want none, hyperband or asha)", name)
	}
}

// ---------------------------------------------------------------------------
// Rung-driven Hyperband
// ---------------------------------------------------------------------------

// RungHyperband is Hyperband (Li et al.) as a rung-driven scheduler: it
// samples Hyperband's bracket structure (sMax+1 brackets, bracket s
// starting ⌈(sMax+1)/(s+1)·η^s⌉ configs at R/η^s epochs), but each trial is
// submitted once with the bracket's first rung as its budget and the
// bracket's last rung as its ceiling. The scheduler watches the live epoch
// stream; when a rung's members have all reported their boundary epoch (or
// exited), it halts the losers through the prune path and promotes the top
// ⌊n/η⌋ to the next rung's budget via task extension — survivors keep
// training the same model, so every epoch below a rung is executed exactly
// once instead of once per rung. It generalises the paper's
// early-stopping discussion (§6.2) into a principled budget allocation.
//
// In the default synchronous mode rungs are barriers, so every member of a
// bracket must be able to run concurrently: Study.Run fails fast when the
// runtime has fewer task slots than the largest bracket (MinSlots), which
// would otherwise deadlock paused trials against queued ones. The
// asynchronous mode (NewRungHyperbandAsync) removes the barrier — members
// are decided per-arrival at their rung boundary, ASHA-style — so the same
// bracket structure runs on any capacity, down to a single slot, and
// independent brackets interleave on the runtime instead of draining
// sequentially.
type RungHyperband struct {
	space *Space
	// MaxR is the largest per-trial epoch budget (R).
	MaxR int
	// Eta is the halving factor.
	Eta int

	mu       sync.Mutex
	brackets []*rungBracket
	cur      int
	finished bool
	byKey    map[string]*rungMember
	byTrial  map[int]*rungMember

	// Async-mode state: members wait in a scheduler-side queue (the
	// waiting room) and are handed out by Ask as capacity frees up.
	async    bool
	parallel bool // brackets interleave instead of draining in order
	capacity int  // admission ceiling (0 = unbounded); see SetCapacity
	queue    []*rungMember
	released int // brackets whose members have entered the queue
	inFlight int // admitted members not yet exited
	exitedN  int
	total    int
}

// rungBracket is one successive-halving bracket driven through rungs.
type rungBracket struct {
	members []*rungMember
	// budgets holds each rung's epoch budget, ascending; built with
	// successive halving's promotion rule, so the last entry is the
	// bracket's ceiling.
	budgets   []int
	handed    bool
	evaluated []bool // per non-final rung: decisions emitted? (sync mode)
	// arrivals records, per non-final rung, the values of members that
	// reached the rung boundary so far — the ranking pool for async
	// per-arrival decisions.
	arrivals [][]float64
}

// rungMember is one configuration's life across a bracket's rungs.
type rungMember struct {
	key     string
	cfg     Config
	bracket *rungBracket
	trialID int
	// rung indexes the member's current rung in budgets (advanced on
	// promotion — including for members that exited with a full result).
	rung int
	// best is the running maximum of observed epoch values (a trial's
	// BestAcc); hasValue guards the first observation. Members that exit
	// without a usable value (failed, canceled) rank as -1 and lose.
	best     float64
	hasValue bool
	// observed[k] reports the member reported its boundary epoch of rung k.
	observed []bool
	// decided[k] reports an async per-arrival decision was already taken at
	// rung k — the guard that makes a restarted attempt's re-reported
	// boundary epoch a no-op instead of a double promotion.
	decided []bool
	exited  bool
	halted  bool
}

// NewRungHyperband builds the rung-driven sampler/scheduler in synchronous
// mode. Identical seeds propose identical configurations: brackets sample
// in order from one RNG stream.
func NewRungHyperband(space *Space, maxBudget, eta int, seed uint64) *RungHyperband {
	if maxBudget < 1 {
		maxBudget = 27
	}
	if eta < 2 {
		eta = 3
	}
	h := &RungHyperband{
		space: space, MaxR: maxBudget, Eta: eta,
		byKey:   make(map[string]*rungMember),
		byTrial: make(map[int]*rungMember),
	}
	rng := tensor.NewRNG(seed)
	sMax := int(math.Floor(math.Log(float64(maxBudget)) / math.Log(float64(eta))))
	nextID := 0
	for s := sMax; s >= 0; s-- {
		n := int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(float64(eta), float64(s))))
		budget := maxBudget / intPow(eta, s)
		if budget < 1 {
			budget = 1
		}
		b := &rungBracket{budgets: []int{budget}}
		// Precompute the rung ladder with successive halving's promotion
		// rule: keep the top 1/eta with eta× budget while both survive the
		// caps. baseline accumulates the epochs this ladder costs when every
		// rung re-trains its survivors from scratch — the comparison point
		// for hpo_study_epochs_total.
		baseline := n * budget
		for alive, bud := n, budget; ; {
			keep, next := alive/eta, bud*eta
			if keep < 1 || next > maxBudget {
				break
			}
			b.budgets = append(b.budgets, next)
			baseline += keep * next
			alive, bud = keep, next
		}
		obsBaselineEpochs.Add(uint64(baseline))
		b.evaluated = make([]bool, len(b.budgets))
		b.arrivals = make([][]float64, len(b.budgets))
		for i := 0; i < n; i++ {
			cfg := space.Sample(rng)
			key := fmt.Sprintf("b%d-%d", s, nextID)
			nextID++
			cfg["_hb"] = key
			m := &rungMember{key: key, cfg: cfg, bracket: b, trialID: -1,
				observed: make([]bool, len(b.budgets)),
				decided:  make([]bool, len(b.budgets))}
			b.members = append(b.members, m)
			h.byKey[key] = m
			h.total++
		}
		h.brackets = append(h.brackets, b)
	}
	return h
}

func intPow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// NewRungHyperbandAsync builds the same bracket structure (identical seeds
// propose identical configurations) in asynchronous, non-barrier mode:
// members are admitted from a waiting-room queue as capacity frees up,
// promotion decisions are taken per-arrival at rung boundaries (ASHA's
// rule, Li et al., Massively Parallel Hyperparameter Tuning), and
// independent brackets execute in parallel. Async mode needs no minimum
// concurrency — it runs correctly on a single task slot.
func NewRungHyperbandAsync(space *Space, maxBudget, eta int, seed uint64) *RungHyperband {
	h := NewRungHyperband(space, maxBudget, eta, seed)
	h.async = true
	h.parallel = true
	return h
}

// AsyncRungs implements the capacity probe Study.Run uses to decide whether
// the MinSlots fail-fast applies: async rungs never deadlock on capacity.
func (h *RungHyperband) AsyncRungs() bool { return h.async }

// SetCapacity tells the async waiting room how many members may be in
// flight at once — the runtime's Slots for the study's constraint.
// Ask then admits members only as slots free up instead of flooding the
// runtime queue. Zero means unbounded (admit everything on request).
// No-op in sync mode, where Ask must hand out whole brackets.
func (h *RungHyperband) SetCapacity(slots int) {
	h.mu.Lock()
	h.capacity = slots
	h.mu.Unlock()
}

// Name implements Sampler and TrialScheduler.
func (h *RungHyperband) Name() string { return "hyperband-rung" }

// MaxBudget implements TrialScheduler. (Ask stamps per-bracket ceilings
// itself; this is the global R.)
func (h *RungHyperband) MaxBudget() int { return h.MaxR }

// MinSlots returns the largest bracket's size: the concurrency a runtime
// must provide so a whole rung can reach its boundary together.
func (h *RungHyperband) MinSlots() int {
	slots := 0
	for _, b := range h.brackets {
		if len(b.members) > slots {
			slots = len(b.members)
		}
	}
	return slots
}

// RungMemberInfo describes one bracket member of a RungHyperband for
// offline consumers (internal/replay): its hidden binding key, its
// submission config (clone; carries "_hb", num_epochs and "_hb_max") and
// its bracket's full rung budget ladder.
type RungMemberInfo struct {
	Key     string
	Config  Config
	Budgets []int
}

// Members lists every bracket member in the canonical global order — the
// order the sync mode submits brackets and the async waiting room releases
// them. Identical seeds build identical member lists, which is what lets a
// replay engine rebind journal trial ids to bracket members.
func (h *RungHyperband) Members() []RungMemberInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]RungMemberInfo, 0, h.total)
	for _, b := range h.brackets {
		for _, m := range b.members {
			out = append(out, RungMemberInfo{
				Key:     m.key,
				Config:  memberConfig(m, b),
				Budgets: append([]int(nil), b.budgets...),
			})
		}
	}
	return out
}

// Done implements Sampler.
func (h *RungHyperband) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.finished
}

// Ask implements Sampler. In synchronous mode it hands out the current
// bracket in full — every member carries the first rung's budget as
// num_epochs and the bracket's ceiling as the hidden "_hb_max" — and
// returns empty while the bracket is in flight; the batch cap is
// deliberately ignored, because a partially submitted bracket could never
// complete a rung. In asynchronous mode it pops members from the waiting
// room instead, honouring both the batch cap and the admission capacity
// (SetCapacity), since per-arrival decisions never wait on unadmitted
// members.
func (h *RungHyperband) Ask(n int) []Config {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.async {
		return h.askAsyncLocked(n)
	}
	if h.finished || h.cur >= len(h.brackets) {
		h.finished = true
		return nil
	}
	b := h.brackets[h.cur]
	if b.handed {
		return nil
	}
	b.handed = true
	out := make([]Config, 0, len(b.members))
	for _, m := range b.members {
		out = append(out, memberConfig(m, b))
	}
	return out
}

// memberConfig renders a member's submission config: the first rung as its
// budget and the bracket ceiling as the hidden promotion bound.
func memberConfig(m *rungMember, b *rungBracket) Config {
	cfg := m.cfg.Clone()
	cfg["num_epochs"] = b.budgets[0]
	if last := b.budgets[len(b.budgets)-1]; last > b.budgets[0] {
		cfg["_hb_max"] = last
	}
	return cfg
}

// askAsyncLocked serves the waiting room: release brackets into the queue
// (all at once when brackets run in parallel, in drain order otherwise),
// then admit at most min(batch cap, free capacity) members. Callers hold
// h.mu.
func (h *RungHyperband) askAsyncLocked(n int) []Config {
	h.releaseLocked()
	take := len(h.queue)
	if h.capacity > 0 {
		if free := h.capacity - h.inFlight; free < take {
			take = free
		}
	}
	if n > 0 && n < take {
		take = n
	}
	if take <= 0 {
		h.checkFinishedLocked()
		return nil
	}
	out := make([]Config, 0, take)
	for _, m := range h.queue[:take] {
		out = append(out, memberConfig(m, m.bracket))
	}
	h.queue = append([]*rungMember(nil), h.queue[take:]...)
	obsWaitingRoom.Set(float64(len(h.queue)))
	return out
}

// releaseLocked tops up the waiting room. Parallel mode releases every
// bracket immediately; sequential mode releases bracket i only once all
// members of brackets < i have exited. Callers hold h.mu.
func (h *RungHyperband) releaseLocked() {
	for h.released < len(h.brackets) {
		if !h.parallel && h.released > 0 && !h.bracketExitedLocked(h.brackets[h.released-1]) {
			return
		}
		b := h.brackets[h.released]
		b.handed = true
		h.queue = append(h.queue, b.members...)
		h.released++
		obsWaitingRoom.Set(float64(len(h.queue)))
	}
}

// bracketExitedLocked reports every member of b is terminal.
func (h *RungHyperband) bracketExitedLocked(b *rungBracket) bool {
	for _, m := range b.members {
		if !m.exited {
			return false
		}
	}
	return true
}

// checkFinishedLocked marks the async run done once every member exited and
// nothing waits for admission. Callers hold h.mu.
func (h *RungHyperband) checkFinishedLocked() {
	if h.exitedN == h.total && len(h.queue) == 0 && h.released == len(h.brackets) {
		h.finished = true
	}
}

// Tell implements Sampler: a no-op — the scheduler half already learned
// every outcome through Complete.
func (h *RungHyperband) Tell([]TrialResult) {}

// Admit implements TrialScheduler: the hidden "_hb" key binds the trial to
// its bracket member.
func (h *RungHyperband) Admit(trialID, budget int, cfg Config) {
	key, _ := cfg["_hb"].(string)
	h.mu.Lock()
	defer h.mu.Unlock()
	if m := h.byKey[key]; m != nil {
		m.trialID = trialID
		h.byTrial[trialID] = m
		h.inFlight++
	}
}

// Observe implements TrialScheduler.
func (h *RungHyperband) Observe(trialID, epoch int, value float64) []SchedDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.byTrial[trialID]
	if m == nil || m.exited {
		return nil
	}
	if !m.hasValue || value > m.best {
		m.best, m.hasValue = value, true
	}
	if h.async {
		return h.observeAsyncLocked(m, epoch)
	}
	b := m.bracket
	// A restarted attempt re-reports earlier epochs; only the member's
	// current rung boundary matters.
	if m.rung < len(b.budgets) && epoch+1 == b.budgets[m.rung] {
		m.observed[m.rung] = true
	}
	return h.evaluateLocked()
}

// observeAsyncLocked is the per-arrival (non-barrier) decision: a member
// reaching its current rung boundary is ranked against every value
// recorded at that rung so far and immediately promoted (top 1/eta) or
// halted — no waiting for the rest of the rung. decided[k] makes the rule
// idempotent per rung: a worker-death restart re-reports its boundary
// epoch, and the duplicate arrival must not rank (or promote) twice.
// Callers hold h.mu.
func (h *RungHyperband) observeAsyncLocked(m *rungMember, epoch int) []SchedDecision {
	b := m.bracket
	k := m.rung
	if m.halted || k+1 >= len(b.budgets) || epoch+1 != b.budgets[k] || m.decided[k] {
		return nil
	}
	if promoted, rank, n := h.arriveLocked(m, k); promoted {
		return []SchedDecision{{
			TrialID: m.trialID, Budget: b.budgets[k+1], Epoch: epoch,
			Reason: ReasonRungAsyncPromote(rank, n, k, b.budgets[k], b.budgets[k+1]),
		}}
	} else {
		return []SchedDecision{{
			TrialID: m.trialID, Budget: 0, Epoch: epoch,
			Reason: ReasonRungAsyncHalt(rank, n, k, b.budgets[k], m.rankValue()),
		}}
	}
}

// arriveLocked records m's arrival at rung k and applies the pure
// per-arrival rule (DecideRungArrival — the ASHA keep rule, ties ranking
// behind earlier arrivals so a plateaued objective cannot promote every
// arrival). It advances or halts the member and returns the verdict with
// its rank context. Callers hold h.mu.
func (h *RungHyperband) arriveLocked(m *rungMember, k int) (promoted bool, rank, n int) {
	b := m.bracket
	m.decided[k] = true
	value := m.rankValue()
	v := DecideRungArrival(b.arrivals[k], value, h.Eta)
	b.arrivals[k] = append(b.arrivals[k], value)
	if v.Promote {
		m.rung = k + 1
		return true, v.Rank, v.N
	}
	m.halted = true
	return false, v.Rank, v.N
}

// Complete implements TrialScheduler.
func (h *RungHyperband) Complete(trialID int, res *TrialResult) []SchedDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.byTrial[trialID]
	if m == nil || m.exited {
		return nil
	}
	m.exited = true
	if res != nil && res.Succeeded() {
		if !m.hasValue || res.BestAcc > m.best {
			m.best, m.hasValue = res.BestAcc, true
		}
	}
	if h.async {
		h.completeAsyncLocked(m, res)
		return nil
	}
	return h.evaluateLocked()
}

// completeAsyncLocked retires a member from the waiting-room accounting
// and, for members that exited with a full result without streaming
// (checkpoint resumes, memo hits), replays their arrivals through the
// rungs their recorded epochs actually reached — anchoring the ranking
// pools so later live arrivals rank against resumed values, without
// emitting decisions for a trial that is already terminal. Callers hold
// h.mu.
func (h *RungHyperband) completeAsyncLocked(m *rungMember, res *TrialResult) {
	h.exitedN++
	if h.inFlight > 0 {
		h.inFlight--
	}
	if res != nil && res.Succeeded() && !m.halted {
		b := m.bracket
		for k := m.rung; k+1 < len(b.budgets) && !m.decided[k] && res.Epochs >= b.budgets[k]; k++ {
			if promoted, _, _ := h.arriveLocked(m, k); !promoted {
				break
			}
		}
	}
	h.releaseLocked()
	h.checkFinishedLocked()
}

// evaluateLocked settles every rung that became decidable and advances the
// bracket cursor past fully exited brackets. Callers hold h.mu.
func (h *RungHyperband) evaluateLocked() []SchedDecision {
	var out []SchedDecision
	for h.cur < len(h.brackets) {
		b := h.brackets[h.cur]
		if !b.handed {
			break
		}
		out = append(out, h.evaluateBracketLocked(b)...)
		done := true
		for _, m := range b.members {
			if !m.exited {
				done = false
				break
			}
		}
		if !done {
			break
		}
		h.cur++
	}
	if h.cur >= len(h.brackets) {
		h.finished = true
	}
	return out
}

// evaluateBracketLocked emits decisions for each rung whose members have
// all reached the boundary or exited, cascading so resume-time exits can
// settle several rungs at once. Callers hold h.mu.
func (h *RungHyperband) evaluateBracketLocked(b *rungBracket) []SchedDecision {
	var out []SchedDecision
	for k := 0; k+1 < len(b.budgets); k++ {
		if b.evaluated[k] {
			continue
		}
		var alive []*rungMember
		ready := true
		for _, m := range b.members {
			if m.rung != k || m.halted {
				continue
			}
			alive = append(alive, m)
			if !m.exited && !m.observed[k] {
				ready = false
			}
		}
		if !ready || len(alive) == 0 {
			break
		}
		b.evaluated[k] = true
		// Rank through the pure barrier rule (RankSyncRung): value desc,
		// key asc; members without a usable value (failed/canceled before
		// the boundary) lose with -1.
		contenders := make([]RungContender, len(alive))
		for i, m := range alive {
			contenders[i] = RungContender{Key: m.key, Value: m.rankValue()}
		}
		order, keep := RankSyncRung(contenders, h.Eta)
		next := b.budgets[k+1]
		for i, idx := range order {
			m := alive[idx]
			switch {
			case i < keep:
				m.rung = k + 1
				if !m.exited {
					out = append(out, SchedDecision{
						TrialID: m.trialID, Budget: next, Epoch: b.budgets[k] - 1,
						Reason: ReasonRungSyncPromote(k, b.budgets[k], next),
					})
				}
			case m.exited:
				m.halted = true
			default:
				m.halted = true
				out = append(out, SchedDecision{
					TrialID: m.trialID, Budget: 0, Epoch: b.budgets[k] - 1,
					Reason: ReasonRungSyncHalt(k, b.budgets[k], m.rankValue()),
				})
			}
		}
	}
	return out
}

// rankValue is the member's ranking key: its best observed (or final)
// value, or -1 when it never produced one, so failures lose their rung.
func (m *rungMember) rankValue() float64 {
	if !m.hasValue {
		return -1
	}
	return m.best
}

// ---------------------------------------------------------------------------
// ASHA with promotion
// ---------------------------------------------------------------------------

// ASHAScheduler is the Asynchronous Successive Halving rule upgraded from
// prune-only (the asha pruner) to promote-capable: trials start at their
// configured num_epochs budget; when one reaches its budget boundary it is
// ranked against every value recorded at that rung so far — the top 1/Eta
// continue to an eta× budget (capped at MaxB) on the same worker, the rest
// halt. Decisions are per-arrival, never waiting for a rung to fill, which
// is what lets remote trials stream at their own pace.
type ASHAScheduler struct {
	// Eta is the halving factor (default 3).
	Eta int
	// MinResource anchors the rung ladder (default 1).
	MinResource int
	// MaxB is the promotion ceiling in epochs.
	MaxB int

	mu      sync.Mutex
	budgets map[int]int             // trialID → granted epoch budget
	rungs   map[int]map[int]float64 // rung index → trialID → value at arrival
	exited  map[int]bool
}

// NewASHAScheduler builds the promotion rule; zero eta/minResource select
// the defaults, maxBudget must be the study's epoch ceiling.
func NewASHAScheduler(eta, minResource, maxBudget int) *ASHAScheduler {
	if eta < 2 {
		eta = 3
	}
	if minResource < 1 {
		minResource = 1
	}
	if maxBudget < 1 {
		maxBudget = 27
	}
	return &ASHAScheduler{
		Eta: eta, MinResource: minResource, MaxB: maxBudget,
		budgets: make(map[int]int),
		rungs:   make(map[int]map[int]float64),
		exited:  make(map[int]bool),
	}
}

// Name implements TrialScheduler.
func (a *ASHAScheduler) Name() string { return "asha-promote" }

// MaxBudget implements TrialScheduler.
func (a *ASHAScheduler) MaxBudget() int { return a.MaxB }

// AsyncRungs reports that ASHA's decisions are always per-arrival: the
// scheduler never barriers a rung, so it has no minimum-capacity need.
func (a *ASHAScheduler) AsyncRungs() bool { return true }

// Admit implements TrialScheduler.
func (a *ASHAScheduler) Admit(trialID, budget int, cfg Config) {
	if budget < 1 {
		budget = a.MinResource
	}
	a.mu.Lock()
	a.budgets[trialID] = budget
	a.mu.Unlock()
}

// rungIndex maps a budget onto the ladder: the highest k with
// MinResource·Eta^k ≤ budget.
func (a *ASHAScheduler) rungIndex(budget int) int {
	k, r := 0, a.MinResource
	for r*a.Eta <= budget {
		r *= a.Eta
		k++
	}
	return k
}

// Observe implements TrialScheduler: decisions fire exactly when a trial
// reaches its current budget boundary below the ceiling.
func (a *ASHAScheduler) Observe(trialID, epoch int, value float64) []SchedDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.exited[trialID] {
		return nil
	}
	budget, ok := a.budgets[trialID]
	if !ok || epoch+1 != budget || budget >= a.MaxB {
		return nil
	}
	k := a.rungIndex(budget)
	rung := a.rungs[k]
	if rung == nil {
		rung = make(map[int]float64)
		a.rungs[k] = rung
	}
	// Rank against the incumbents through the pure per-arrival rule (ties
	// rank behind earlier arrivals, like RungHyperband's async rule), then
	// record this arrival in the pool.
	pool := make([]float64, 0, len(rung))
	//lint:ignore replaydet guarded collect of incumbent scores; DecideRungArrival ranks by counting, which is order-insensitive
	for id, v := range rung {
		if id != trialID {
			pool = append(pool, v)
		}
	}
	rung[trialID] = value
	verdict := DecideRungArrival(pool, value, a.Eta)
	if !verdict.Promote {
		return []SchedDecision{{
			TrialID: trialID, Budget: 0, Epoch: epoch,
			Reason: ReasonASHAHalt(verdict.Rank, verdict.N, k, budget, value),
		}}
	}
	next := budget * a.Eta
	if next > a.MaxB {
		next = a.MaxB
	}
	a.budgets[trialID] = next
	return []SchedDecision{{
		TrialID: trialID, Budget: next, Epoch: epoch,
		Reason: ReasonASHAPromote(verdict.Rank, verdict.N, k, budget, next),
	}}
}

// Complete implements TrialScheduler: rung entries persist as ranking
// anchors, like the prune-only ASHA.
func (a *ASHAScheduler) Complete(trialID int, res *TrialResult) []SchedDecision {
	a.mu.Lock()
	a.exited[trialID] = true
	a.mu.Unlock()
	return nil
}
