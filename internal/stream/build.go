package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// BuildConfig controls a dataset build.
type BuildConfig struct {
	// Name labels the dataset in its manifest.
	Name string
	// Heatmap is the window geometry.
	Heatmap heatmap.Config
	// MaxWindows caps windows per item; 0 means all.
	MaxWindows int
	// ShardWindows is the number of windows per stored shard; 0
	// defaults to 64.
	ShardWindows int
	// MinHitRate filters items whose simulated hit rate falls below
	// it (matching Pipeline.Dataset's filter).
	MinHitRate float64
	// Workers bounds build parallelism; 0 means GOMAXPROCS.
	Workers int
	// Buffer is each streaming run's channel depth; 0 defaults to 16.
	Buffer int
	// Sampling, when set, enables representative-interval sampling:
	// only cluster-representative windows are simulated into shards,
	// carrying their cluster-share training weights.
	Sampling *sampling.Config
}

func (bc BuildConfig) withDefaults() BuildConfig {
	if bc.ShardWindows <= 0 {
		bc.ShardWindows = 64
	}
	if bc.Name == "" {
		bc.Name = "dataset"
	}
	return bc
}

// itemSummary is the per-item memo persisted under KindItem: a warm
// rebuild loads it instead of simulating, leaving sim_runs at zero.
type itemSummary struct {
	HitRate  float64    `json:"hit_rate"`
	Windows  int        `json:"windows"`
	Complete bool       `json:"complete"`
	Skipped  bool       `json:"skipped,omitempty"`
	Shards   []ShardRef `json:"shards,omitempty"`
}

// shardCutter groups a run's windows into fixed-size shards and
// publishes each to the store as it fills. With a nil store it only
// counts windows.
type shardCutter struct {
	st    *store.Store
	bc    BuildConfig
	bench workload.Benchmark
	cfg   cachesim.Config

	buf   []ShardWindow
	refs  []ShardRef
	total int
}

func (c *shardCutter) add(w ShardWindow) error {
	c.total++
	if c.st == nil {
		return nil
	}
	c.buf = append(c.buf, w)
	if len(c.buf) >= c.bc.ShardWindows {
		return c.flush()
	}
	return nil
}

func (c *shardCutter) flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	k := shardKey(c.bc, c.bench, c.cfg, len(c.refs))
	sm, err := c.st.Put(k, func(w io.Writer) error { return EncodeShard(w, c.buf) })
	if err != nil {
		return err
	}
	c.refs = append(c.refs, ShardRef{Digest: sm.Digest, SHA256: sm.SHA256, Windows: len(c.buf)})
	c.buf = c.buf[:0]
	return nil
}

// Build streams every benchmark × cache configuration item into
// sharded store entries and publishes the dataset manifest. Items are
// memoised individually: a rerun over a warm store simulates nothing.
// With bc.Sampling set, ground truth is simulated only for cluster
// representatives (and items owning none are skipped outright); the
// emitted weights make the thinned dataset train as a population
// estimate. The manifest's item order is cache-config major, the order
// Samples assembles, so an exhaustive dataset serves exactly the
// sample sequence Samples returns.
func Build(ctx context.Context, st *store.Store, benches []workload.Benchmark, cfgs []cachesim.Config, bc BuildConfig) (*Manifest, *store.Manifest, error) {
	if st == nil {
		return nil, nil, fmt.Errorf("stream: Build requires a store")
	}
	bc = bc.withDefaults()
	built, plan, err := buildItems(ctx, st, benches, cfgs, bc, nil)
	if err != nil {
		return nil, nil, err
	}

	man := &Manifest{
		Format:       ManifestFormat,
		Name:         bc.Name,
		Heatmap:      bc.Heatmap,
		MaxWindows:   bc.MaxWindows,
		ShardWindows: bc.ShardWindows,
		MinHitRate:   bc.MinHitRate,
		Items:        built,
	}
	if plan != nil {
		man.Sampling = &SamplingInfo{
			Config:          plan.Config,
			TotalWindows:    plan.TotalWindows,
			Representatives: plan.Representatives(),
		}
	}
	for _, it := range built {
		if it.usable() {
			man.TotalWindows += it.Windows
		}
	}

	payload, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("stream: encode manifest: %w", err)
	}
	sm, err := st.Put(datasetKey(bc, benches, cfgs), func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		return nil, nil, err
	}
	return man, sm, nil
}

// Samples assembles the training samples of every benchmark × cache
// configuration item, in Build's cache-config-major order, leaving out
// items whose hit rate falls below bc.MinHitRate (the paper's §6.1
// "high data regime" rule; 0 keeps everything). Items are computed or
// recalled exactly as Build does, through the store when st is non-nil,
// so the two share a warm store; unlike Build, the samples are held in
// memory.
func Samples(ctx context.Context, st *store.Store, benches []workload.Benchmark, cfgs []cachesim.Config, bc BuildConfig) ([]core.Sample, error) {
	bc = bc.withDefaults()
	kept := make([][]ShardWindow, len(benches)*len(cfgs))
	built, _, err := buildItems(ctx, st, benches, cfgs, bc, kept)
	if err != nil {
		return nil, err
	}
	var out []core.Sample
	for i, it := range built {
		if !it.usable() {
			continue
		}
		params := core.CacheParams(it.Cache)
		for _, w := range kept[i] {
			out = append(out, core.Sample{Access: w.Access, Miss: w.Miss, Params: params, Bench: it.Bench, Weight: w.Weight})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stream: dataset is empty (all items filtered?)")
	}
	return out, nil
}

// Truth computes or recalls one benchmark × cache item's ground truth:
// its first maxWindows aligned access/miss pairs (0 = all) and the
// exact whole-trace hit rate. With a store it shares Build's item
// memo (default shard size), so a warm call decodes the pairs from
// the item's shards without simulating; with a nil store it just runs
// Run.
func Truth(ctx context.Context, st *store.Store, bench workload.Benchmark, cfg cachesim.Config, hm heatmap.Config, maxWindows int) ([]heatmap.Pair, float64, error) {
	bc := BuildConfig{Heatmap: hm, MaxWindows: maxWindows}.withDefaults()
	var ws []ShardWindow
	it, err := buildItem(ctx, st, bc, nil, bench, cfg, &ws)
	if err != nil {
		return nil, 0, err
	}
	var pairs []heatmap.Pair
	for _, w := range ws {
		pairs = append(pairs, heatmap.Pair{Access: w.Access, Miss: w.Miss})
	}
	return pairs, it.HitRate, nil
}

// buildItems validates a sweep, plans representative sampling when
// bc asks for it, and computes or recalls every benches × cfgs item on
// the worker pool, returning them in cache-config-major order. When
// kept is non-nil, kept[i] receives item i's windows.
func buildItems(ctx context.Context, st *store.Store, benches []workload.Benchmark, cfgs []cachesim.Config, bc BuildConfig, kept [][]ShardWindow) ([]Item, *sampling.Plan, error) {
	if err := bc.Heatmap.Validate(); err != nil {
		return nil, nil, err
	}
	if len(benches) == 0 || len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("stream: a dataset requires benchmarks and cache configs")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
	}

	var plan *sampling.Plan
	if bc.Sampling != nil {
		var err error
		plan, err = sampling.BuildPlan(ctx, benches, bc.Heatmap, bc.MaxWindows, *bc.Sampling, bc.Workers)
		if err != nil {
			return nil, nil, err
		}
	}

	type pending struct {
		bench workload.Benchmark
		cfg   cachesim.Config
	}
	items := make([]pending, 0, len(benches)*len(cfgs))
	for _, cfg := range cfgs {
		for _, b := range benches {
			items = append(items, pending{b, cfg})
		}
	}
	built, err := par.Map(ctx, bc.Workers, items, func(ctx context.Context, i int, it pending) (Item, error) {
		var keep *[]ShardWindow
		if kept != nil {
			keep = &kept[i]
		}
		return buildItem(ctx, st, bc, plan, it.bench, it.cfg, keep)
	})
	if err != nil {
		return nil, nil, err
	}
	return built, plan, nil
}

// buildItem computes or recalls one benchmark × cache item; it is the
// one place ground truth is produced. With a store the item is
// memoised as a summary plus window shards, and a warm call loads the
// summary (and, when keep is set, decodes the shards) without
// simulating. With a nil store it just runs Run. Windows stream
// straight into shards; only a non-nil keep also collects them.
func buildItem(ctx context.Context, st *store.Store, bc BuildConfig, plan *sampling.Plan, bench workload.Benchmark, cfg cachesim.Config, keep *[]ShardWindow) (Item, error) {
	out := Item{
		Bench: bench.Name,
		Group: bench.Group,
		Suite: bench.Suite,
		Ops:   bench.Ops,
		Seed:  bench.Seed,
		Cache: cfg,
	}
	if st != nil {
		if sum, ok := recallItem(st, bc, bench, cfg, keep); ok {
			return finishItem(out, bc, sum), nil
		}
	}
	sum, err := simulateItem(ctx, st, bc, plan, bench, cfg, keep)
	if err != nil {
		return out, fmt.Errorf("stream: %s: %w", bench.Name, err)
	}
	if st != nil {
		payload, err := json.Marshal(sum)
		if err != nil {
			return out, fmt.Errorf("stream: encode item summary: %w", err)
		}
		if _, err := st.Put(itemKey(bc, bench, cfg), func(w io.Writer) error {
			_, werr := w.Write(payload)
			return werr
		}); err != nil {
			return out, err
		}
	}
	return finishItem(out, bc, sum), nil
}

// recallItem loads an item's memoised summary and, when keep is set,
// decodes its windows; both are keyed store lookups, so each counts as
// a store hit. A corrupt or incomplete memo reports false, so the
// caller rebuilds it.
func recallItem(st *store.Store, bc BuildConfig, bench workload.Benchmark, cfg cachesim.Config, keep *[]ShardWindow) (itemSummary, bool) {
	data, _, err := st.GetBytes(itemKey(bc, bench, cfg))
	if err != nil {
		return itemSummary{}, false
	}
	var sum itemSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		return itemSummary{}, false
	}
	if keep == nil {
		return sum, true
	}
	var ws []ShardWindow
	for i, ref := range sum.Shards {
		part, err := loadShard(ref, func() (io.ReadCloser, *store.Manifest, error) { return st.Get(shardKey(bc, bench, cfg, i)) })
		if err != nil {
			return itemSummary{}, false
		}
		ws = append(ws, part...)
	}
	*keep = ws
	return sum, true
}

// simulateItem streams one item through Run, cutting its windows into
// shards when a store is attached. Under a sampling plan only the
// item's representative windows are kept, with their cluster weights,
// and simulation stops after the last one; an item owning no
// representative is skipped without simulating — this is where
// sampling's savings come from.
func simulateItem(ctx context.Context, st *store.Store, bc BuildConfig, plan *sampling.Plan, bench workload.Benchmark, cfg cachesim.Config, keep *[]ShardWindow) (itemSummary, error) {
	rc := RunConfig{Heatmap: bc.Heatmap, MaxWindows: bc.MaxWindows, Buffer: bc.Buffer}
	var repW map[int]float64
	if plan != nil {
		pi := plan.Item(bench.Name)
		if pi == nil {
			return itemSummary{}, fmt.Errorf("sampling plan has no entry")
		}
		if len(pi.Reps) == 0 {
			metrics.SamplingSimSkipped.Inc()
			return itemSummary{HitRate: -1, Skipped: true}, nil
		}
		repW = make(map[int]float64, len(pi.Reps))
		rc.MaxWindows, rc.StopEarly = 0, true
		for _, r := range pi.Reps {
			repW[r.Window] = r.Weight
			if r.Window+1 > rc.MaxWindows {
				rc.MaxWindows = r.Window + 1
			}
		}
		var span *obs.Span
		ctx, span = obs.Start(ctx, "sampling.sim_rep")
		span.Tag("bench", bench.Name)
		span.TagInt("reps", len(pi.Reps))
		defer span.End()
	}

	cut := &shardCutter{st: st, bc: bc, bench: bench, cfg: cfg}
	res, err := Run(ctx, bench, cfg, rc, func(w Window) error {
		sw := ShardWindow{Access: w.Pair.Access, Miss: w.Pair.Miss}
		if repW != nil {
			wt, ok := repW[w.Index]
			if !ok {
				return nil
			}
			sw.Weight = wt
		}
		if keep != nil {
			*keep = append(*keep, sw)
		}
		return cut.add(sw)
	})
	if err != nil {
		return itemSummary{}, err
	}
	if err := cut.flush(); err != nil {
		return itemSummary{}, err
	}
	return itemSummary{HitRate: res.HitRate, Windows: cut.total, Complete: res.Complete, Shards: cut.refs}, nil
}

// finishItem folds a summary into the item and applies the hit-rate
// filter (only items with a known whole-trace hit rate can be
// filtered).
func finishItem(it Item, bc BuildConfig, sum itemSummary) Item {
	it.HitRate = sum.HitRate
	it.Windows = sum.Windows
	it.Skipped = sum.Skipped
	it.Shards = sum.Shards
	if !sum.Skipped && sum.Complete && sum.HitRate < bc.MinHitRate {
		it.Filtered = true
	}
	return it
}

// LoadManifest fetches a dataset manifest by its store digest.
func LoadManifest(st *store.Store, digest string) (*Manifest, *store.Manifest, error) {
	rc, sm, err := st.OpenDigest(digest)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore unchecked-error read-only handle; ReadAll below already surfaces any I/O failure
	defer rc.Close()
	if sm.Kind != KindDataset {
		return nil, nil, fmt.Errorf("stream: %s is a %q entry, not a dataset", digest, sm.Kind)
	}
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, nil, fmt.Errorf("stream: decode manifest %s: %w", digest, err)
	}
	return &man, sm, nil
}

// Verify opens and decodes every shard the manifest references,
// checking content hashes and window counts. It returns the number of
// shards checked.
func (m *Manifest) Verify(st *store.Store) (int, error) {
	checked := 0
	for _, it := range m.Items {
		for i, ref := range it.Shards {
			if _, err := loadShard(ref, func() (io.ReadCloser, *store.Manifest, error) { return st.OpenDigest(ref.Digest) }); err != nil {
				return checked, fmt.Errorf("%s/%+v shard %d: %w", it.Bench, it.Cache, i, err)
			}
			checked++
		}
	}
	return checked, nil
}
