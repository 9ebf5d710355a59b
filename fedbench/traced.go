package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"fedtrans/internal/compress"
	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/netcoord"
	"fedtrans/internal/tensor"
)

// span is one traced call into a layer. A client attempt is identified
// by (round, client, attempt); every span's parent is the run's fl.run
// span, which covers [0, wall).
type span struct {
	name                   string
	round, client, attempt int
	model                  int
	samples                int
	start, end             time.Duration // since the run began
}

// recorder keeps the spans of one traced run in memory.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) since() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(name string, spec fl.TrainSpec, m *model.Model, samples int, start time.Duration) {
	s := span{name: name, round: spec.Round, client: spec.Client, attempt: spec.Attempt,
		model: m.ID, samples: samples, start: start, end: r.since()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// dump writes the run span and every recorded span as JSON lines.
func (r *recorder) dump(path string, wall time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		Round   int    `json:"round"`
		Client  int    `json:"client"`
		Attempt int    `json:"attempt"`
		Model   int    `json:"model"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
	}
	err = enc.Encode(line{Name: "fl.run", Round: -1, Client: -1, Attempt: -1, Model: -1, EndUS: wall.Microseconds()})
	for _, s := range r.spans {
		if err != nil {
			break
		}
		err = enc.Encode(line{s.name, "fl.run", s.round, s.client, s.attempt, s.model, s.start.Microseconds(), s.end.Microseconds()})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sessionTracer is the in-process Trainer of a traced run: the same
// fl.ClientTrainer harness network agents train with, pooled per model,
// with one fl.session span per attempt.
type sessionTracer struct {
	ds   *data.Dataset
	rec  *recorder
	mu   sync.Mutex
	free map[int][]*fl.ClientTrainer
}

func (t *sessionTracer) Train(m *model.Model, spec fl.TrainSpec, cfg fl.LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	start := t.rec.since()
	t.mu.Lock()
	var ct *fl.ClientTrainer
	if list := t.free[m.ID]; len(list) > 0 {
		ct = list[len(list)-1]
		t.free[m.ID] = list[:len(list)-1]
	}
	t.mu.Unlock()
	if ct == nil {
		ct = fl.NewClientTrainer(t.ds, m.Clone())
	}
	ct.Model().SetWeights(m.Params())
	loss, n := ct.Train(spec.Client, cfg, spec.Seed, upload)
	t.mu.Lock()
	t.free[m.ID] = append(t.free[m.ID], ct)
	t.mu.Unlock()
	t.rec.add("fl.session", spec, m, n, start)
	return loss, n, nil
}

// hubTracer decorates the coordinator's Hub with one netcoord.train span
// per attempt, forwarding both training forms.
type hubTracer struct {
	hub *netcoord.Hub
	rec *recorder
}

var _ fl.QuantizedTrainer = (*hubTracer)(nil)

func (h *hubTracer) Train(m *model.Model, spec fl.TrainSpec, cfg fl.LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	start := h.rec.since()
	loss, n, err := h.hub.Train(m, spec, cfg, upload)
	h.rec.add("netcoord.train", spec, m, n, start)
	return loss, n, err
}

func (h *hubTracer) TrainQuantized(m *model.Model, spec fl.TrainSpec, cfg fl.LocalConfig, qs []compress.QuantizedTensor) (float64, int, error) {
	start := h.rec.since()
	loss, n, err := h.hub.TrainQuantized(m, spec, cfg, qs)
	h.rec.add("netcoord.train", spec, m, n, start)
	return loss, n, err
}
