package main

import (
	"context"
	"errors"
	"time"

	"dualsim"
	"dualsim/internal/queries"
)

// paperSuite replays all 32 paper queries in-process on default
// sessions (pruning on, Volcano, plan cache): L0–L5 over LUBM with 30
// universities, D0–D5 and B0–B19 over KG at scale 10.
type paperSuite struct {
	seed     int64
	specs    []queries.Spec
	lubm, kg *dualsim.DB
	want     map[string]answer
	cache0   dualsim.PlanCacheStats
}

func setupPaperSuite(ctx context.Context, seed int64, _ string) (instance, error) {
	lubm, err := dualsim.GenerateLUBMStore(30, dataSeed)
	if err != nil {
		return nil, err
	}
	kg, err := dualsim.GenerateKGStore(10, dataSeed)
	if err != nil {
		return nil, err
	}
	p := &paperSuite{seed: seed, specs: queries.All()}
	if p.lubm, err = dualsim.Open(lubm, dualsim.WithPlanCache(64)); err != nil {
		return nil, err
	}
	if p.kg, err = dualsim.Open(kg, dualsim.WithPlanCache(64)); err != nil {
		p.close()
		return nil, err
	}
	// Warm the lazy predicate matrices and the plan cache.
	for _, s := range p.specs {
		if _, _, err := p.db(s).Query(ctx, s.Text); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *paperSuite) db(s queries.Spec) *dualsim.DB {
	if s.Dataset == "lubm" {
		return p.lubm
	}
	return p.kg
}

func (p *paperSuite) oracle(ctx context.Context) error {
	p.want = make(map[string]answer, len(p.specs))
	for _, db := range []*dualsim.DB{p.lubm, p.kg} {
		var specs []queries.Spec
		for _, s := range p.specs {
			if p.db(s) == db {
				specs = append(specs, s)
			}
		}
		w, err := oracleAnswers(ctx, db.Store(), specs)
		if err != nil {
			return err
		}
		for id, a := range w {
			p.want[id] = a
		}
	}
	p.cache0 = p.cacheStats()
	return nil
}

func (p *paperSuite) cacheStats() dualsim.PlanCacheStats {
	a, b := p.lubm.CacheStats(), p.kg.CacheStats()
	return dualsim.PlanCacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses}
}

func (p *paperSuite) pass(int) []read {
	out := make([]read, len(p.specs))
	for i, s := range p.specs {
		db, id, src := p.db(s), s.ID, s.Text
		out[i] = read{id: id, do: func(ctx context.Context) (bool, error) {
			res, stats, err := db.Query(ctx, src)
			if err != nil {
				return false, err
			}
			return stats.CacheHit, checkRows(id, res.Len(), p.want[id].n)
		}}
	}
	return out
}

// burst writes to the KG session, the larger store. (Alternating
// sessions would make the write latency bimodal with its median on the
// boundary.)
func (p *paperSuite) burst(ctx context.Context) ([]time.Duration, error) {
	return probe(p.seed, []string{"dbo:starring"}, func(d dualsim.Delta) error {
		_, err := p.kg.Apply(ctx, d)
		return err
	})
}

func (p *paperSuite) verify(ctx context.Context) ([]string, int, error) {
	got := make(map[string][]string, len(p.specs))
	for _, s := range p.specs {
		db := p.db(s)
		res, _, err := db.Query(ctx, s.Text)
		if err != nil {
			return nil, 0, err
		}
		got[s.ID] = canonResult(db.Store(), res)
	}
	return mismatches(got, p.want), len(got), nil
}

func (p *paperSuite) layers(ctx context.Context, sl *spanLog, rq request, i int, acc *layerAcc) error {
	s := p.specs[i]
	pt, err := decompose(ctx, sl, rq.id, p.db(s).Store(), s.ID, s.Text, p.want[s.ID].n, acc)
	if err != nil {
		return err
	}
	addQueryTime(acc, s.ID, rq.dur, rq.cacheHit, pt)
	return nil
}

func (p *paperSuite) totals(context.Context) (map[string]float64, error) {
	c := p.cacheStats()
	hits, misses := c.Hits-p.cache0.Hits, c.Misses-p.cache0.Misses
	return map[string]float64{"dualsim.plancache_hit_rate": float64(hits) / float64(max(hits+misses, 1))}, nil
}

func (p *paperSuite) close() error {
	var errs []error
	for _, db := range []*dualsim.DB{p.lubm, p.kg} {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	return errors.Join(errs...)
}
