package main

import (
	"bufio"
	"context"
	"errors"
	"strconv"
	"strings"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/cluster/router"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/sparql"
)

// routedShards is the shard count of each predicate-hash cluster.
const routedShards = 2

// routedCluster is one dataset's cluster: a shard server per
// predicate-hash partition and a router in front, all on loopback, plus
// a single-node session over the full store for comparison.
type routedCluster struct {
	single *dualsim.DB
	shards []*dualsim.DB
	shardC []*client.Client
	router *client.Client
	stops  []func() error
}

// routedGather cycles L0, L2 and L4 (LUBM with 10 universities, gather
// path) and B9 and D2 (KG at scale 2, some branches pushed down)
// through two 2-shard routers.
type routedGather struct {
	seed     int64
	specs    []queries.Spec
	clusters map[string]*routedCluster // by dataset
	want     map[string]answer
	metrics0 [2]float64 // router gathers, pushdowns at the start
	cache0   dualsim.PlanCacheStats
}

func setupRoutedGather(ctx context.Context, seed int64, _ string) (instance, error) {
	specs, err := specsByID("L0", "L2", "L4", "B9", "D2")
	if err != nil {
		return nil, err
	}
	r := &routedGather{seed: seed, specs: specs, clusters: make(map[string]*routedCluster)}
	lubm, err := dualsim.GenerateLUBMStore(10, dataSeed)
	if err != nil {
		return nil, err
	}
	kg, err := dualsim.GenerateKGStore(2, dataSeed)
	if err != nil {
		return nil, err
	}
	for ds, st := range map[string]*dualsim.Store{"lubm": lubm, "kg": kg} {
		c := &routedCluster{}
		r.clusters[ds] = c
		if err := c.start(ctx, st); err != nil {
			r.close()
			return nil, err
		}
	}
	for _, s := range specs {
		if _, err := r.clusters[s.Dataset].router.Query(ctx, s.Text); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (c *routedCluster) start(ctx context.Context, st *dualsim.Store) error {
	var err error
	if c.single, err = dualsim.Open(st, dualsim.WithPlanCache(64)); err != nil {
		return err
	}
	var endpoints [][]string
	for i := 0; i < routedShards; i++ {
		part, err := cluster.ShardStore(st, cluster.ShardSpec{Index: i, N: routedShards})
		if err != nil {
			return err
		}
		db, err := dualsim.Open(part, dualsim.WithPlanCache(64))
		if err != nil {
			return err
		}
		c.shards = append(c.shards, db)
		srv, err := server.New(db)
		if err != nil {
			return err
		}
		url, stop, err := listen(srv)
		if err != nil {
			return err
		}
		c.stops = append(c.stops, stop)
		sc, err := client.New(url, client.WithRetries(0))
		if err != nil {
			return err
		}
		c.shardC = append(c.shardC, sc)
		endpoints = append(endpoints, []string{url})
	}
	rt, err := router.New(endpoints)
	if err != nil {
		return err
	}
	rt.Probe(ctx)
	url, stop, err := listen(rt)
	if err != nil {
		return err
	}
	c.stops = append(c.stops, stop)
	c.router, err = client.New(url, client.WithRetries(0))
	return err
}

func (c *routedCluster) close() error {
	var errs []error
	for i := len(c.stops) - 1; i >= 0; i-- {
		errs = append(errs, c.stops[i]())
	}
	for _, db := range append(c.shards, c.single) {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	return errors.Join(errs...)
}

func (r *routedGather) oracle(ctx context.Context) error {
	r.want = make(map[string]answer, len(r.specs))
	for _, s := range r.specs {
		w, err := oracleAnswers(ctx, r.clusters[s.Dataset].single.Store(), []queries.Spec{s})
		if err != nil {
			return err
		}
		r.want[s.ID] = w[s.ID]
	}
	r.cache0 = r.shardCacheStats()
	var err error
	r.metrics0, err = r.routeCounts(ctx)
	return err
}

// shardCacheStats sums the shard sessions' plan-cache counters.
func (r *routedGather) shardCacheStats() dualsim.PlanCacheStats {
	var sum dualsim.PlanCacheStats
	for _, c := range r.clusters {
		for _, db := range c.shards {
			cs := db.CacheStats()
			sum.Hits, sum.Misses = sum.Hits+cs.Hits, sum.Misses+cs.Misses
		}
	}
	return sum
}

func (r *routedGather) pass(int) []read {
	out := make([]read, len(r.specs))
	for i, s := range r.specs {
		rc, id, src := r.clusters[s.Dataset].router, s.ID, s.Text
		out[i] = read{id: id, do: func(ctx context.Context) (bool, error) {
			resp, err := rc.Query(ctx, src)
			if err != nil {
				return false, err
			}
			return false, checkRows(id, len(resp.Rows), r.want[id].n)
		}}
	}
	return out
}

// burst writes through the LUBM router, which splits each write by
// predicate placement.
func (r *routedGather) burst(ctx context.Context) ([]time.Duration, error) {
	return probe(r.seed, []string{"ub:advisor", "ub:teacherOf"}, func(d dualsim.Delta) error {
		_, err := r.clusters["lubm"].router.ApplyDelta(ctx, d)
		return err
	})
}

// verify compares routed rows with the single-node oracle.
func (r *routedGather) verify(ctx context.Context) ([]string, int, error) {
	got := make(map[string][]string, len(r.specs))
	for _, s := range r.specs {
		resp, err := r.clusters[s.Dataset].router.Query(ctx, s.Text)
		if err != nil {
			return nil, 0, err
		}
		got[s.ID] = canonWire(resp.Vars, resp.Rows)
	}
	return mismatches(got, r.want), len(got), nil
}

// layers exports the predicates of each branch the router gathers from
// their owning shards, runs the query on the single-node session, and
// decomposes it in-process.
func (r *routedGather) layers(ctx context.Context, sl *spanLog, rq request, i int, acc *layerAcc) error {
	s := r.specs[i]
	c := r.clusters[s.Dataset]
	q, err := sparql.Parse(s.Text)
	if err != nil {
		return err
	}
	var export time.Duration
	var exported int
	for _, owners := range gatherOwners(q.Expr) {
		for si, preds := range owners {
			d, err := sl.timed(rq.id, 0, "router.export", func() error {
				resp, err := c.shardC[si].Export(ctx, preds)
				if err == nil {
					exported += len(resp.Triples)
				}
				return err
			})
			if err != nil {
				return err
			}
			export += d
		}
	}
	var hit bool
	single, err := sl.timed(rq.id, 0, "dualsim.query", func() error {
		_, stats, err := c.single.Query(ctx, s.Text)
		if stats != nil {
			hit = stats.CacheHit
		}
		return err
	})
	if err != nil {
		return err
	}
	pt, err := decompose(ctx, sl, rq.id, c.single.Store(), s.ID, s.Text, r.want[s.ID].n, acc)
	if err != nil {
		return err
	}
	addQueryTime(acc, s.ID, single, hit, pt)
	acc.add(s.ID, "router.request_us", us64(rq.dur))
	acc.add(s.ID, "router.export_us", us64(export))
	acc.add(s.ID, "router.exported_triples", float64(exported))
	acc.add(s.ID, "router.other_us", us64(rq.dur-export-single))
	return nil
}

// gatherOwners returns, for each top-level UNION branch whose
// predicates span shards (the router's gather path), the predicates
// each owning shard exports.
func gatherOwners(e sparql.Expr) []map[int][]string {
	var branches []sparql.Expr
	var split func(sparql.Expr)
	split = func(e sparql.Expr) {
		if u, ok := e.(sparql.Union); ok {
			split(u.L)
			split(u.R)
			return
		}
		branches = append(branches, e)
	}
	split(e)
	var out []map[int][]string
	for _, b := range branches {
		owners := make(map[int][]string)
		seen := make(map[string]bool)
		for _, tp := range sparql.Triples(b) {
			if tp.P.Const == nil || seen[tp.P.Const.Value] {
				continue
			}
			p := tp.P.Const.Value
			seen[p] = true
			si := cluster.ShardOf(p, routedShards)
			owners[si] = append(owners[si], p)
		}
		if len(owners) > 1 {
			out = append(out, owners)
		}
	}
	return out
}

// routeCounts sums the routers' gather and pushdown counters.
func (r *routedGather) routeCounts(ctx context.Context) ([2]float64, error) {
	var out [2]float64
	for _, c := range r.clusters {
		text, err := c.router.Metrics(ctx)
		if err != nil {
			return out, err
		}
		sc := bufio.NewScanner(strings.NewReader(text))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				continue
			}
			switch name {
			case "dualsimrouter_gathers_total":
				out[0] += v
			case "dualsimrouter_pushdowns_total":
				out[1] += v
			}
		}
	}
	return out, nil
}

func (r *routedGather) totals(ctx context.Context) (map[string]float64, error) {
	now, err := r.routeCounts(ctx)
	if err != nil {
		return nil, err
	}
	gathers, pushdowns := now[0]-r.metrics0[0], now[1]-r.metrics0[1]
	cs := r.shardCacheStats()
	hits, misses := cs.Hits-r.cache0.Hits, cs.Misses-r.cache0.Misses
	return map[string]float64{
		"router.gather_frac":         gathers / max(gathers+pushdowns, 1),
		"dualsim.plancache_hit_rate": float64(hits) / float64(max(hits+misses, 1)),
	}, nil
}

func (r *routedGather) close() error {
	var errs []error
	for _, c := range r.clusters {
		errs = append(errs, c.close())
	}
	return errors.Join(errs...)
}
