package fl

import (
	"math"
	"sort"

	"fedtrans/internal/model"
)

// This file is the FedBuff-style staleness-bounded asynchronous round
// loop (Config.MaxStaleness ≥ 1): constant client concurrency, a
// per-update staleness discount and a simulated device-time wall clock,
// run through the same pipeline as synchronous rounds — the runtime's
// one task stream for background local training, the round aggregator
// for folds, and trainTask, settle and applyCommitted for everything a
// committed update touches. Where the synchronous loop keeps a window
// of tasks ahead of an in-order frontier, this loop keeps
// AsyncConcurrency dispatches in flight and waits each round's commit
// set in (arrival, seq) order.
//
// Determinism: the commit schedule is computed before any training
// result is read. A dispatch's arrival time is attemptChain, a walk of
// the same per-attempt plan that settle charges at commit (see plan in
// attempt.go), and a pure function of (version, client, model). So each
// round's commit set and fold order ((arrival, seq), a total order) are
// identical for any worker scheduling, including fully serial
// execution.

// asyncTask is one dispatched client: its training slot, whose version
// is the server round at dispatch (the model version the client
// trains), plus the scheduling state the commit policy sorts on.
type asyncTask struct {
	slot       roundTask
	seq        int     // global dispatch sequence, the total-order tiebreak
	dispatchAt float64 // virtual clock at dispatch
	arrival    float64 // dispatchAt + the attempt chain's simulated duration
	committed  bool
}

// asyncConcurrency resolves Config.AsyncConcurrency: the constant
// number of clients kept training at once.
func (rt *Runtime) asyncConcurrency() int {
	cfg := rt.cfg
	c := cfg.AsyncConcurrency
	if c <= 0 {
		c = 2 * cfg.ClientsPerRound
	}
	if c < cfg.ClientsPerRound {
		c = cfg.ClientsPerRound
	}
	if c < 1 {
		c = 1
	}
	return c
}

// snapGet returns a COW snapshot of m's current weights for a dispatch:
// a pooled husk re-armed in place when one is available (zero
// allocations), a fresh clone otherwise. Runs on the consumer only.
func (rt *Runtime) snapGet(m *model.Model) *model.Model {
	if src, ok := rt.snaps.get(m.ID); ok {
		src.ShareWeightsFrom(m)
		return src
	}
	// Prime on the consumer: the background task and a concurrent
	// checkpoint snapshot both read the caches. Pooled husks keep them
	// warm across reuses.
	src := m.Clone()
	primeCaches(src)
	return src
}

// snapPut retires a dispatch snapshot into the husk pool: each
// parameter header drops its buffer interest (so pooled husks never
// force Finalize's copy-on-write detach) but stays allocated for
// snapGet to re-arm.
func (rt *Runtime) snapPut(src *model.Model) {
	for _, p := range src.Params() {
		p.Release()
	}
	rt.snaps.put(src.ID, src)
}

// taskGet returns a zeroed asyncTask from the freelist, or a new one.
func (rt *Runtime) taskGet() *asyncTask {
	if n := len(rt.atFree); n > 0 {
		at := rt.atFree[n-1]
		rt.atFree = rt.atFree[:n-1]
		*at = asyncTask{}
		return at
	}
	return &asyncTask{}
}

// dispatch snapshots the model's current weights (COW, O(headers)) and
// submits the client's first training attempt to the background task
// stream. The snapshot is what the client trains from: the server may
// move the live weights several rounds ahead before this update folds.
func (rt *Runtime) dispatch(round, client int, m *model.Model) {
	at := rt.taskGet()
	*at = asyncTask{
		slot:       roundTask{client: client, m: m, src: rt.snapGet(m), version: round},
		seq:        rt.asyncSeq,
		dispatchAt: rt.asyncNow,
	}
	rt.asyncSeq++
	rt.launch(at)
}

// launch schedules a dispatch's arrival from its attempt chain and
// submits its first training attempt to the task stream. Dispatch and
// checkpoint resume both launch through here: arrival is a pure
// function of (version, client, model), so it is never stored.
func (rt *Runtime) launch(at *asyncTask) {
	u := &at.slot
	at.arrival = at.dispatchAt + rt.attemptChain(u.version, u.client, u.m)
	rt.stream.Go(&u.tk, u)
	rt.inflight = append(rt.inflight, at)
}

// runAsyncRound executes one server round of the asynchronous loop:
// top up the in-flight set to AsyncConcurrency fresh dispatches, pick
// the commit set (everything that would exceed the staleness bound if
// deferred, plus the earliest arrivals up to ClientsPerRound), fold it
// in (arrival, seq) order, and advance the virtual clock to the latest
// committed arrival. Rounds therefore never wait for stragglers that
// the staleness budget still covers.
func (rt *Runtime) runAsyncRound(round int, res *Result) (float64, float64, map[int]int, bool) {
	cfg := rt.cfg

	// Deterministic churn step, then top-up selection over the online
	// population excluding clients already in flight — a client trains
	// one dispatch at a time.
	if rt.busyBuf == nil {
		rt.busyBuf = make(map[int]bool)
	}
	for c := range rt.busyBuf {
		delete(rt.busyBuf, c)
	}
	for _, at := range rt.inflight {
		rt.busyBuf[at.slot.client] = true
	}
	rt.activeBuf = rt.activeBuf[:0]
	if rt.churn != nil {
		rt.churn.Step(rt.rng)
		rt.activeBuf = rt.churn.ActiveInto(rt.activeBuf)
	} else {
		for c, n := 0, rt.ds.Len(); c < n; c++ {
			rt.activeBuf = append(rt.activeBuf, c)
		}
	}
	cand := rt.candBuf[:0]
	for _, c := range rt.activeBuf {
		if !rt.busyBuf[c] {
			cand = append(cand, c)
		}
	}
	rt.candBuf = cand

	roundDropouts := 0
	if want := rt.asyncConcurrency() - len(rt.inflight); want > 0 && len(cand) > 0 {
		for _, c := range rt.selectFrom(round, cand, want) {
			switch m, dropped := rt.assignModel(c, res); {
			case dropped:
				roundDropouts++
			case m != nil:
				rt.dispatch(round, c, m)
			}
		}
	}

	// Commit policy: force-commit every dispatch that would exceed the
	// staleness bound if it survived past this round, then fill with the
	// earliest arrivals up to ClientsPerRound total.
	sorted := append(rt.sortBuf[:0], rt.inflight...)
	rt.sortBuf = sorted
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].arrival != sorted[j].arrival {
			return sorted[i].arrival < sorted[j].arrival
		}
		return sorted[i].seq < sorted[j].seq
	})
	commitN := 0
	for _, at := range sorted {
		if round-at.slot.version >= cfg.MaxStaleness {
			at.committed = true
			commitN++
		}
	}
	for _, at := range sorted {
		if commitN >= cfg.ClientsPerRound {
			break
		}
		if !at.committed {
			at.committed = true
			commitN++
		}
	}

	// Settle the commit set in (arrival, seq) order, exactly like the
	// synchronous consume loop. The virtual clock advances to each
	// committed arrival (an update that arrived while the server was
	// busy with earlier rounds costs no extra wall clock).
	prevNow := rt.asyncNow
	folded := 0
	committed := rt.commitBuf[:0]
	for _, at := range sorted {
		if !at.committed {
			continue
		}
		u := &at.slot
		rt.stream.Wait(&u.tk)
		u.stale = round - u.version
		_, ok := rt.settle(u.version, u, res)
		rt.snapPut(u.src)
		u.src = nil
		if at.arrival > rt.asyncNow {
			rt.asyncNow = at.arrival
		}
		if ok {
			folded++
			rt.staleSum += int64(u.stale)
			rt.staleCnt++
			committed = append(committed, u)
		}
	}
	rt.commitBuf = committed
	roundTime := rt.asyncNow - prevNow

	// Retire the committed dispatches, preserving dispatch order.
	keep := rt.inflight[:0]
	for _, at := range rt.inflight {
		if at.committed {
			// The scheduling record is done; its slot contents were
			// already returned to their pools in the commit loop.
			rt.atFree = append(rt.atFree, at)
			continue
		}
		keep = append(keep, at)
	}
	for i := len(keep); i < len(rt.inflight); i++ {
		rt.inflight[i] = nil
	}
	rt.inflight = keep

	// Quorum over everyone the round settled: the commit set plus this
	// round's dropout draws.
	if cfg.Quorum > 0 {
		need := int(math.Ceil(cfg.Quorum * float64(commitN+roundDropouts)))
		if need < 1 {
			need = 1
		}
		if folded < need {
			rt.agg.Abort()
			res.AbortedRounds++
			return 0, roundTime, nil, false
		}
	}

	roundLoss, perModel := rt.applyCommitted(round, committed, res)
	return roundLoss, roundTime, perModel, true
}

// drainAsync retires every still-in-flight dispatch once the round loop
// ends: the run is over, so training is withdrawn or its result
// discarded (FedBuff drops in-flight work at termination), but upload
// buffers return to their pools and the dispatch-time weight snapshots
// are released.
func (rt *Runtime) drainAsync() {
	for _, at := range rt.inflight {
		u := &at.slot
		rt.stream.Cancel(&u.tk)
		rt.releaseUploads(u)
		if u.src != nil {
			rt.snapPut(u.src)
			u.src = nil
		}
		rt.atFree = append(rt.atFree, at)
	}
	rt.inflight = rt.inflight[:0]
}
