package fl

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/selection"
	"fedtrans/internal/tensor"
)

// The tests in this file pin the single attempt model: the synchronous
// commit path and the asynchronous commit schedule charge every client
// attempt the same simulated duration and the same planned outcome.
//
// With MaxStaleness 1, ClientsPerRound 1 and AsyncConcurrency 1 each
// asynchronous round dispatches one client and commits it in the same
// round, so the round's charge (RoundLog.RoundTime) is the scheduled
// attempt chain, and the run retraces the synchronous run with
// ClientsPerRound 1 draw for draw.

// clockTol absorbs the rounding of the asynchronous round charge: it is
// the difference of two absolute virtual-clock readings, not the chain
// duration itself.
const clockTol = 1e-6

func sameCharge(a, b float64) bool { return math.Abs(a-b) <= clockTol }

// withoutRoundTimes returns res with every round charge zeroed, for
// comparing a synchronous and an asynchronous run bit for bit.
func withoutRoundTimes(res Result) Result {
	res.RoundTimes = nil
	res.Log = append([]RoundLog(nil), res.Log...)
	for i := range res.Log {
		res.Log[i].RoundTime = 0
	}
	return res
}

// feedbackCall is one Selector.Feedback observation.
type feedbackCall struct {
	client  int
	loss    float64
	elapsed float64
}

// feedbackLog is a uniform-random selector that records every Feedback
// call: the elapsed simulated time the commit path charged a client.
type feedbackLog struct {
	selection.Random
	mu    sync.Mutex
	calls []feedbackCall
}

func (f *feedbackLog) Feedback(client int, loss, elapsed float64) {
	f.mu.Lock()
	f.calls = append(f.calls, feedbackCall{client, loss, elapsed})
	f.mu.Unlock()
}

// errTransport is the wire fault flakyTrainer injects.
var errTransport = errors.New("test: transport failed")

// flakyTrainer trains in process, bit-identically to the session pool,
// except that it fails one client's chosen attempt at the transport
// layer every time that attempt runs.
type flakyTrainer struct {
	ds      *data.Dataset
	client  int
	attempt int
	mu      sync.Mutex
	hits    int
}

func (f *flakyTrainer) Train(m *model.Model, spec TrainSpec, cfg LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	if spec.Client == f.client && spec.Attempt == f.attempt {
		f.mu.Lock()
		f.hits++
		f.mu.Unlock()
		return 0, 0, errTransport
	}
	s := newLocalSession(m)
	loss, n := s.run(m, f.ds.Fetch(&s.cur, spec.Client), cfg, uint64(spec.Seed), upload)
	return loss, n, nil
}

// oneClientConfig runs one participant per round with retries, backoff
// and a timeout, so every attempt's charge is visible in the round log.
func oneClientConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 24
	cfg.ClientsPerRound = 1
	cfg.Local.Steps = 2
	cfg.EvalEvery = 24
	cfg.ConvergePatience = 0
	cfg.RecordLog = true
	cfg.RetryBudget = 2
	cfg.RetryBackoff = 0.25
	return cfg
}

// asyncOneByOne switches cfg to asynchronous rounds that dispatch and
// commit exactly one client each.
func asyncOneByOne(cfg Config) Config {
	cfg.MaxStaleness = 1
	cfg.AsyncConcurrency = 1
	return cfg
}

// runLogged runs the runtime cfg builds with a recording selector.
func runLogged(t *testing.T, cfg Config, build func(Config) *Runtime) (Result, []feedbackCall) {
	t.Helper()
	fb := &feedbackLog{}
	cfg.Selector = fb
	res := build(cfg).Run()
	return res, fb.calls
}

// roundFeedback pairs every committed round with the Feedback its single
// participant produced; failed rounds report no feedback.
func roundFeedback(t *testing.T, res Result, calls []feedbackCall) map[int]feedbackCall {
	t.Helper()
	out := make(map[int]feedbackCall)
	k := 0
	for _, lg := range res.Log {
		if lg.Failures != 0 {
			continue
		}
		if k >= len(calls) {
			t.Fatalf("round %d settled its client but sent no feedback", lg.Round)
		}
		out[lg.Round] = calls[k]
		k++
	}
	if k != len(calls) {
		t.Fatalf("%d feedback calls for %d settled rounds", len(calls), k)
	}
	return out
}

// TestAttemptPlanSyncAsyncAgree runs zero-sample clients under crash,
// corrupt and non-finite chaos, stragglers past ClientTimeout, and
// retries with backoff. The asynchronous schedule must charge each
// round exactly what its commit charged the client, and the whole run
// must equal the synchronous one.
func TestAttemptPlanSyncAsyncAgree(t *testing.T) {
	cfg := oneClientConfig()
	cfg.Chaos = chaos.Config{
		Seed: 11, CrashRate: 0.15, CorruptRate: 0.15, NonFiniteRate: 0.15,
		StragglerRate: 0.3, StragglerDelay: 1000,
	}
	cfg.ClientTimeout = 500
	empty := []int{1, 3, 4}
	build := func(c Config) *Runtime { return zeroSampleRuntime(t, c, empty...) }

	syncRes, syncCalls := runLogged(t, cfg, build)
	asyncRes, asyncCalls := runLogged(t, asyncOneByOne(cfg), build)

	sawEmpty := false
	fb := roundFeedback(t, asyncRes, asyncCalls)
	for _, lg := range asyncRes.Log {
		call, ok := fb[lg.Round]
		if !ok {
			continue
		}
		if !sameCharge(call.elapsed, lg.RoundTime) {
			t.Errorf("round %d client %d: commit charged %v, schedule charged %v",
				lg.Round, call.client, call.elapsed, lg.RoundTime)
		}
		for _, c := range empty {
			sawEmpty = sawEmpty || call.client == c
		}
	}
	if !sawEmpty {
		t.Fatal("no zero-sample client committed: the run does not cover the case")
	}
	if asyncRes.Retries == 0 || asyncRes.Failures == 0 {
		t.Fatalf("retries=%d failures=%d: the chaos profile does not cover retries and failures",
			asyncRes.Retries, asyncRes.Failures)
	}
	if !reflect.DeepEqual(syncCalls, asyncCalls) {
		t.Errorf("feedback differs:\nsync  %v\nasync %v", syncCalls, asyncCalls)
	}
	for i := range syncRes.RoundTimes {
		if !sameCharge(syncRes.RoundTimes[i], asyncRes.RoundTimes[i]) {
			t.Errorf("round %d: sync charged %v, async %v", i, syncRes.RoundTimes[i], asyncRes.RoundTimes[i])
		}
	}
	if !reflect.DeepEqual(withoutRoundTimes(syncRes), withoutRoundTimes(asyncRes)) {
		t.Error("one-by-one async run differs from the sync run beyond round charges")
	}
}

// TestAttemptPlanTransportError fails one client's first attempt at the
// transport layer. Both loops must charge that attempt its planned
// duration, then the backoff, then the retry. The asynchronous schedule
// cannot know a transport error in advance, so there the retry extends
// the client's elapsed time past its scheduled arrival — the one stated
// exception to schedule ≡ commit.
func TestAttemptPlanTransportError(t *testing.T) {
	cfg := oneClientConfig()
	cfg.DisableTransform = true // one model, so the planned charge is computable
	const flaky = 2
	var trainers []*flakyTrainer
	build := func(c Config) *Runtime {
		rt := zeroSampleRuntime(t, c)
		tr := &flakyTrainer{ds: rt.ds, client: flaky}
		trainers = append(trainers, tr)
		rt.cfg.Trainer = tr
		return rt
	}
	syncRes, syncCalls := runLogged(t, cfg, build)
	asyncRes, asyncCalls := runLogged(t, asyncOneByOne(cfg), build)
	for i, tr := range trainers {
		if tr.hits == 0 {
			t.Fatalf("run %d never selected client %d: the run does not cover the case", i, flaky)
		}
	}
	if syncRes.Failures != 0 || asyncRes.Failures != 0 {
		t.Fatalf("failures sync=%d async=%d, want 0: the retry must succeed",
			syncRes.Failures, asyncRes.Failures)
	}
	if !reflect.DeepEqual(syncCalls, asyncCalls) {
		t.Errorf("feedback differs:\nsync  %v\nasync %v", syncCalls, asyncCalls)
	}

	rt := zeroSampleRuntime(t, cfg)
	m := rt.suite[0]
	planned := rt.trace.TrainingTime(flaky, m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes())
	want := planned + cfg.RetryBackoff + planned
	fb := roundFeedback(t, asyncRes, asyncCalls)
	for _, lg := range asyncRes.Log {
		call := fb[lg.Round]
		if call.client != flaky {
			if !sameCharge(call.elapsed, lg.RoundTime) {
				t.Errorf("round %d client %d: commit charged %v, schedule charged %v",
					lg.Round, call.client, call.elapsed, lg.RoundTime)
			}
			continue
		}
		if call.elapsed != want {
			t.Errorf("round %d: transport-failed attempt plus retry charged %v, want %v", lg.Round, call.elapsed, want)
		}
		if !sameCharge(lg.RoundTime, planned) {
			t.Errorf("round %d: schedule charged %v, want the planned first attempt %v", lg.Round, lg.RoundTime, planned)
		}
	}
}
