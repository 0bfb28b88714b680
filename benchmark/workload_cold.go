package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/reptile"
)

// coldForm is one on-disk form of the tall data and how the SDK opens it.
type coldForm struct {
	name string
	path func(*inputs) string
	opts []reptile.Option
}

// coldForms are opened round-robin, so the three see identical noise.
// Partitioned files carry no cube section and building per-shard cubes at
// open costs more than the session itself, so the sharded form serves by
// scatter-gather scans over the mapped columns.
var coldForms = []coldForm{
	{name: "plain", path: (*inputs).plainRSTPath},
	{name: "mapped", path: (*inputs).cubeRSTPath, opts: []reptile.Option{reptile.WithMappedIO()}},
	{name: "sharded", path: (*inputs).shardedRSTPath, opts: []reptile.Option{reptile.WithMappedIO()}},
}

// coldWorkload is the one-shot SDK caller: open a file, complain, drill,
// complain, close — nothing survives from one session to the next.
type coldWorkload struct {
	in     *inputs
	seed   int64
	rounds []coldRound
}

// coldScriptRounds is the length of the cold-session script before it wraps.
const coldScriptRounds = 240

func (w *coldWorkload) prepare(cfg runConfig) (*inputs, error) {
	w.in = &inputs{g: generate(cfg.shape(shapeTall), cfg.seed, probeReserveRows), dir: cfg.workDir}
	w.seed = cfg.seed
	w.rounds = w.in.g.coldRounds(cfg.seed, coldScriptRounds)
	return w.in, w.in.writeCSV()
}

// setup is the conversion a one-shot user runs once per dataset: CSV to the
// three .rst forms, then one session on each so the files are in the page
// cache the way a second invocation would find them.
func (w *coldWorkload) setup() error {
	if err := w.in.writeRSTForms(); err != nil {
		return err
	}
	for _, f := range coldForms {
		if _, _, err := w.session(f, w.rounds[0], nil, nil, "", 0); err != nil {
			return err
		}
	}
	return nil
}

// session runs one cold session and returns its wall time and the JSON of
// both answers. Part timings land in sm under sdk.<part>_ms.<form> and, with a
// tracer, as child spans of parent.
func (w *coldWorkload) session(f coldForm, r coldRound, sm *samples, t *tracer, req string, parent int) (time.Duration, []byte, error) {
	part := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		if sm != nil {
			sm.add("sdk."+name+"_ms."+f.name, ms(end.Sub(start)))
		}
		if t != nil {
			t.add("sdk."+name, req, parent, start, end)
		}
		return err
	}
	start := time.Now()
	var eng *reptile.Engine
	if err := part("open", func() (err error) {
		eng, err = reptile.Open(f.path(w.in), f.opts...)
		return err
	}); err != nil {
		return 0, nil, err
	}
	var answers bytes.Buffer
	var sess *reptile.Session
	complain := func(spec string) error {
		rec, err := sess.Complain(spec)
		if err != nil {
			return err
		}
		b, err := json.Marshal(rec)
		answers.Write(b)
		return err
	}
	err := part("complain1", func() (err error) {
		if sess, err = eng.NewSession(rootState.groupBy()); err != nil {
			return err
		}
		return complain(r.Complaint1)
	})
	if err == nil {
		err = part("drill", func() error { return sess.Drill(r.Drill) })
	}
	if err == nil {
		err = part("complain2", func() error { return complain(r.Complaint2) })
	}
	if cerr := part("close", eng.Close); err == nil {
		err = cerr
	}
	return time.Since(start), answers.Bytes(), err
}

func (w *coldWorkload) window(d time.Duration, tr *tracer) (*window, error) {
	win := &window{sm: newSamples()}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		r := w.rounds[i%len(w.rounds)]
		var first []byte
		for _, f := range coldForms {
			req := fmt.Sprintf("round%d.%s", i, f.name)
			parent, end := 0, func() {}
			if tr != nil {
				parent, end = tr.open("sdk.session", req, 0)
			}
			lat, answers, err := w.session(f, r, win.sm, tr, req, parent)
			end()
			// The three forms hold the same rows, so every round doubles as
			// an answer check.
			if err == nil && first != nil && !bytes.Equal(first, answers) {
				err = fmt.Errorf("round %d: %s answers differ from %s", i, f.name, coldForms[0].name)
			}
			if first == nil {
				first = answers
			}
			if win.ops.record(err) {
				win.sm.add("op", ms(lat))
				win.sm.add("sdk.session."+f.name, ms(lat))
			}
		}
	}
	win.elapsed = time.Since(start)
	return win, nil
}

func (w *coldWorkload) check() (string, error) {
	probes := w.in.g.probes(w.seed, []state{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}}, 8)
	var digests []string
	for _, f := range coldForms {
		eng, err := reptile.Open(f.path(w.in), f.opts...)
		if err != nil {
			return "", err
		}
		var all bytes.Buffer
		for _, p := range probes {
			b, err := sdkAnswer(eng, p)
			if err != nil {
				eng.Close()
				return "", err
			}
			all.Write(b)
		}
		if err := eng.Close(); err != nil {
			return "", err
		}
		digests = append(digests, digest(all.Bytes()))
	}
	for i, d := range digests {
		if d != digests[0] {
			return "", fmt.Errorf("answers digest of %s (%s) differs from %s (%s)", coldForms[i].name, d, coldForms[0].name, digests[0])
		}
	}
	return digests[0], nil
}

func (w *coldWorkload) scriptDigest() string { return jsonDigest(w.rounds) }

func (w *coldWorkload) replayStates() []state {
	return []state{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}}
}

func (w *coldWorkload) close() error { return nil }
