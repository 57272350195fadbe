package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// listen serves h on a loopback port and returns its base URL and a
// shutdown function that waits for the server goroutine to exit.
func listen(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// serveWire drives a server.New + client.Client loopback over KG at
// scale 2. Each pass sends every query of the mix twice: buffered JSON,
// then streamed NDJSON.
type serveWire struct {
	seed     int64
	specs    []queries.Spec
	db       *dualsim.DB
	srv      *server.Server
	c        *client.Client
	shutdown func() error
	want     map[string]answer
	cache0   dualsim.PlanCacheStats
}

var serveWireMix = []string{"B14", "D4", "B1", "B2", "B11", "B9", "B7", "B0"}

func setupServeWire(ctx context.Context, seed int64, _ string) (instance, error) {
	specs, err := specsByID(serveWireMix...)
	if err != nil {
		return nil, err
	}
	st, err := dualsim.GenerateKGStore(2, dataSeed)
	if err != nil {
		return nil, err
	}
	w := &serveWire{seed: seed, specs: specs}
	if w.db, err = dualsim.Open(st, dualsim.WithPlanCache(64)); err != nil {
		return nil, err
	}
	if w.srv, err = server.New(w.db); err != nil {
		w.close()
		return nil, err
	}
	url, shutdown, err := listen(w.srv)
	if err != nil {
		w.close()
		return nil, err
	}
	w.shutdown = shutdown
	if w.c, err = client.New(url, client.WithRetries(0)); err != nil {
		w.close()
		return nil, err
	}
	for _, s := range specs {
		if _, err := w.c.Query(ctx, s.Text); err != nil {
			w.close()
			return nil, err
		}
		if _, _, err := w.queryStream(ctx, s.Text); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// queryStream runs one streamed query and collects its rows.
func (w *serveWire) queryStream(ctx context.Context, src string) (*client.Stream, [][]*string, error) {
	s, err := w.c.QueryStream(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	var rows [][]*string
	for s.Next() {
		rows = append(rows, s.Row())
	}
	return s, rows, s.Err()
}

func (w *serveWire) oracle(ctx context.Context) (err error) {
	w.want, err = oracleAnswers(ctx, w.db.Store(), w.specs)
	w.cache0 = w.db.CacheStats()
	return err
}

func (w *serveWire) pass(int) []read {
	var out []read
	for _, s := range w.specs {
		id, src := s.ID, s.Text
		out = append(out,
			read{id: id + "/json", do: func(ctx context.Context) (bool, error) {
				resp, err := w.c.Query(ctx, src)
				if err != nil {
					return false, err
				}
				return resp.Stats != nil && resp.Stats.CacheHit, checkRows(id+"/json", len(resp.Rows), w.want[id].n)
			}},
			read{id: id + "/ndjson", do: func(ctx context.Context) (bool, error) {
				s, rows, err := w.queryStream(ctx, src)
				if err != nil {
					return false, err
				}
				return s.Stats() != nil && s.Stats().CacheHit, checkRows(id+"/ndjson", len(rows), w.want[id].n)
			}})
	}
	return out
}

func (w *serveWire) burst(ctx context.Context) ([]time.Duration, error) {
	return probe(w.seed, []string{"dbo:starring"}, func(d dualsim.Delta) error {
		_, err := w.c.ApplyDelta(ctx, d)
		return err
	})
}

func (w *serveWire) verify(ctx context.Context) ([]string, int, error) {
	got := make(map[string][]string)
	for _, s := range w.specs {
		resp, err := w.c.Query(ctx, s.Text)
		if err != nil {
			return nil, 0, err
		}
		got[s.ID] = canonWire(resp.Vars, resp.Rows)
		st, rows, err := w.queryStream(ctx, s.Text)
		if err != nil {
			return nil, 0, err
		}
		got[s.ID+"/ndjson"] = canonWire(st.Vars(), rows)
	}
	want := make(map[string]answer, len(got))
	for _, s := range w.specs {
		want[s.ID], want[s.ID+"/ndjson"] = w.want[s.ID], w.want[s.ID]
	}
	return mismatches(got, want), len(got), nil
}

// layers replays the request into the server's handler through a
// recorder, runs the same query on the session directly, decodes the
// recorded body into the client's response types, and decomposes the
// query in-process.
func (w *serveWire) layers(ctx context.Context, sl *spanLog, rq request, i int, acc *layerAcc) error {
	s, streamed := w.specs[i/2], i%2 == 1
	id := s.ID
	body, err := json.Marshal(wire.QueryRequest{Query: s.Text, Stream: streamed})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	handler, _ := sl.timed(rq.id, 0, "server.handler", func() error {
		w.srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		return nil
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: handler status %d", id, rec.Code)
	}
	var hit bool
	query, err := sl.timed(rq.id, 0, "dualsim.query", func() error {
		_, stats, err := w.db.Query(ctx, s.Text)
		if stats != nil {
			hit = stats.CacheHit
		}
		return err
	})
	if err != nil {
		return err
	}
	var rows int
	decode, err := sl.timed(rq.id, 0, "client.decode", func() (err error) {
		rows, err = decodeBody(rec.Body.Bytes(), streamed)
		return err
	})
	if err != nil {
		return err
	}
	if err := checkRows(id+" (recorded)", rows, w.want[id].n); err != nil {
		return err
	}
	pt, err := decompose(ctx, sl, rq.id, w.db.Store(), id, s.Text, w.want[id].n, acc)
	if err != nil {
		return err
	}
	addQueryTime(acc, id, query, hit, pt)
	acc.add(id, "server.handler_us", us64(handler))
	acc.add(id, "server.encode_us", us64(handler-query))
	acc.add(id, "server.response_kb", float64(rec.Body.Len())/1024)
	acc.add(id, "client.roundtrip_us", us64(rq.dur))
	acc.add(id, "client.decode_us", us64(decode))
	acc.add(id, "client.transport_us", us64(rq.dur-handler-decode))
	return nil
}

// decodeBody decodes a recorded response body the way the client does
// — a client.QueryResponse, or NDJSON events — and returns its row count.
func decodeBody(b []byte, streamed bool) (int, error) {
	if !streamed {
		var resp client.QueryResponse
		err := json.Unmarshal(b, &resp)
		return len(resp.Rows), err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	rows := 0
	for sc.Scan() {
		var ev wire.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rows, err
		}
		if ev.Kind == wire.EventRow {
			rows++
		}
	}
	return rows, sc.Err()
}

func (w *serveWire) totals(context.Context) (map[string]float64, error) {
	c := w.db.CacheStats()
	hits, misses := c.Hits-w.cache0.Hits, c.Misses-w.cache0.Misses
	return map[string]float64{"dualsim.plancache_hit_rate": float64(hits) / float64(max(hits+misses, 1))}, nil
}

func (w *serveWire) close() error {
	var errs []error
	if w.shutdown != nil {
		errs = append(errs, w.shutdown())
	}
	if w.db != nil {
		errs = append(errs, w.db.Close())
	}
	return errors.Join(errs...)
}
