// Command cachebox is the CacheBox-Go CLI: it generates synthetic
// benchmark traces, simulates caches over them, renders heatmaps,
// trains CB-GAN models, runs inference and evaluates predictions.
//
// Usage:
//
//	cachebox <subcommand> [flags]
//
// Subcommands:
//
//	list      list the available synthetic benchmarks
//	trace     generate a benchmark's trace (binary format) to a file
//	simulate  run a trace (or benchmark) through a cache and print stats
//	heatmap   render a benchmark's access/miss heatmaps to PNG files
//	train     train a CB-GAN on a suite and save the model
//	evaluate  evaluate a trained model on held-out benchmarks
//	phases    SimPoint-style phase analysis of a benchmark or trace
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cachebox"
	"cachebox/internal/cachesim"
	"cachebox/internal/obs"
	"cachebox/internal/simpoint"
	"cachebox/internal/trace"
	"cachebox/internal/traind"
	"cachebox/internal/workload"
)

// traceToFile installs a span collector when path is non-empty and
// returns a flush function for the caller to defer: it writes the
// Chrome trace-event file (viewable in chrome://tracing or Perfetto)
// and surfaces the write error if the command itself succeeded.
func traceToFile(path string, err *error) func() {
	if path == "" {
		return func() {}
	}
	c := obs.NewCollector(obs.Options{Trace: true})
	obs.Install(c)
	return func() {
		obs.Install(nil)
		if werr := c.WriteFile(path); werr != nil {
			if *err == nil {
				*err = werr
			}
			return
		}
		fmt.Printf("wrote %d trace events to %s\n", c.EventCount(), path)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "heatmap":
		err = cmdHeatmap(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "phases":
		err = cmdPhases(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cachebox: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachebox:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cachebox <list|trace|simulate|heatmap|train|evaluate|phases> [flags]
run "cachebox <subcommand> -h" for per-subcommand flags`)
}

// allBenches builds every suite at the given budget.
func allBenches(ops int, scale float64) []workload.Benchmark {
	return cachebox.FlattenSuites(cachebox.AllSuites(20, 2, ops, scale))
}

// parseCacheConfig parses "64set-12way" notation.
func parseCacheConfig(s string) (cachesim.Config, error) {
	var cfg cachesim.Config
	parts := strings.Split(s, "-")
	if len(parts) != 2 || !strings.HasSuffix(parts[0], "set") || !strings.HasSuffix(parts[1], "way") {
		return cfg, fmt.Errorf("cache config %q: want e.g. 64set-12way", s)
	}
	sets, err := strconv.Atoi(strings.TrimSuffix(parts[0], "set"))
	if err != nil {
		return cfg, fmt.Errorf("cache config %q: %v", s, err)
	}
	ways, err := strconv.Atoi(strings.TrimSuffix(parts[1], "way"))
	if err != nil {
		return cfg, fmt.Errorf("cache config %q: %v", s, err)
	}
	cfg = cachesim.Config{Sets: sets, Ways: ways}
	return cfg, cfg.Validate()
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale for ligra/poly suites")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, b := range allBenches(*ops, *scale) {
		fmt.Printf("%-36s suite=%-10s group=%s\n", b.Name, b.Suite, b.Group)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	name := fs.String("bench", "", "benchmark name (see: cachebox list)")
	out := fs.String("o", "", "output file (default <bench>.cbxt)")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := workload.ByName(allBenches(*ops, *scale), *name)
	if err != nil {
		return err
	}
	tr := b.Trace()
	path := *out
	if path == "" {
		path = strings.ReplaceAll(b.Name, "/", "_") + ".cbxt"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//lint:ignore unchecked-error cleanup for early returns; the success path checks the explicit Close below
	defer f.Close()
	if err := trace.WriteBinary(f, tr); err != nil {
		return err
	}
	st := trace.Summarize(tr, 64)
	fmt.Printf("wrote %s: %s\n", path, st)
	return f.Close()
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	name := fs.String("bench", "", "benchmark name")
	traceFile := fs.String("trace", "", "binary trace file (alternative to -bench)")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry")
	levels := fs.String("hierarchy", "", "comma-separated level list, e.g. 64set-12way,1024set-8way,2048set-16way")
	policy := fs.String("policy", "lru", "replacement policy: lru, fifo, random, tree-plru, srrip, drrip")
	prefetch := fs.String("prefetch", "", "prefetcher: '', next-line, stride")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
		defer f.Close()
		tr, err = trace.ReadBinary(f)
		if err != nil {
			return err
		}
	case *name != "":
		b, err := workload.ByName(allBenches(*ops, *scale), *name)
		if err != nil {
			return err
		}
		tr = b.Trace()
	default:
		return fmt.Errorf("simulate: need -bench or -trace")
	}

	pol, ok := cachesim.ParsePolicy(*policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if *levels != "" {
		var cfgs []cachesim.Config
		for _, s := range strings.Split(*levels, ",") {
			cfg, err := parseCacheConfig(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			cfg.Policy = pol
			cfgs = append(cfgs, cfg)
		}
		h, err := cachesim.NewHierarchy(cfgs...)
		if err != nil {
			return err
		}
		for i, lt := range cachesim.RunHierarchy(h, tr) {
			fmt.Printf("L%d %-18s accesses=%-9d hits=%-9d misses=%-9d hit-rate=%.4f\n",
				i+1, lt.Config, lt.Stats.Accesses, lt.Stats.Hits, lt.Stats.Misses, lt.HitRate())
		}
		return nil
	}
	cfg, err := parseCacheConfig(*cfgStr)
	if err != nil {
		return err
	}
	cfg.Policy = pol
	c := cachesim.New(cfg)
	switch *prefetch {
	case "next-line":
		c.Prefetcher = &cachesim.NextLinePrefetcher{}
	case "stride":
		c.Prefetcher = &cachesim.StridePrefetcher{}
	case "":
	default:
		return fmt.Errorf("unknown prefetcher %q", *prefetch)
	}
	lt := cachesim.RunTrace(c, tr)
	s := lt.Stats
	fmt.Printf("%s policy=%s accesses=%d hits=%d misses=%d hit-rate=%.4f writebacks=%d",
		cfg, pol, s.Accesses, s.Hits, s.Misses, lt.HitRate(), s.Writebacks)
	if c.Prefetcher != nil {
		fmt.Printf(" prefetch-fills=%d prefetch-hits=%d", s.PrefetchFill, s.PrefetchHit)
	}
	fmt.Println()
	return nil
}

func cmdHeatmap(args []string) error {
	fs := flag.NewFlagSet("heatmap", flag.ExitOnError)
	name := fs.String("bench", "", "benchmark name")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry")
	outDir := fs.String("o", "heatmaps", "output directory")
	count := fs.Int("n", 2, "number of heatmap pairs to render")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := workload.ByName(allBenches(*ops, *scale), *name)
	if err != nil {
		return err
	}
	cfg, err := parseCacheConfig(*cfgStr)
	if err != nil {
		return err
	}
	p := cachebox.NewPipeline()
	pairs, hr, err := p.BenchPairs(b, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *count > len(pairs) {
		*count = len(pairs)
	}
	for i := 0; i < *count; i++ {
		ap := filepath.Join(*outDir, fmt.Sprintf("access-%d.png", i))
		mp := filepath.Join(*outDir, fmt.Sprintf("miss-%d.png", i))
		if err := cachebox.WriteHeatmapPNG(ap, pairs[i].Access); err != nil {
			return err
		}
		if err := cachebox.WriteHeatmapPNG(mp, pairs[i].Miss); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n", ap, mp)
	}
	fmt.Printf("%s on %s: true hit rate %.4f, %d pairs total\n", b.Name, cfg, hr, len(pairs))
	return nil
}

// tinyModelConfig shrinks the CB-GAN for smoke tests: a 16×16 image
// with minimal channel counts trains in seconds on one core.
func tinyModelConfig() cachebox.ModelConfig {
	c := cachebox.DefaultModelConfig()
	c.ImageSize = 16
	c.NGF = 2
	c.NDF = 2
	c.DLayers = 1
	c.CondHidden = 4
	c.CondChannels = 2
	return c
}

// resolveTrainConfig implements the trainer CLIs' shared flag
// precedence: flag defaults < -config file < explicitly set flags.
// set reports which flag names the user passed on the command line.
func resolveTrainConfig(configPath string, set map[string]bool, epochs, batch int, shards, workers int, checkpointEvery int) (cachebox.TrainConfig, error) {
	var tc cachebox.TrainConfig
	if configPath != "" {
		var err error
		if tc, err = cachebox.LoadTrainConfigFile(configPath); err != nil {
			return tc, err
		}
	}
	if set["epochs"] || tc.Epochs == 0 {
		tc.Epochs = epochs
	}
	if set["batch"] || tc.BatchSize == 0 {
		tc.BatchSize = batch
	}
	if set["shards"] || tc.Parallel.Shards == 0 {
		tc.Parallel.Shards = shards
	}
	if set["j"] || tc.Parallel.Workers == 0 {
		tc.Parallel.Workers = workers
	}
	if set["checkpoint-every"] || tc.Checkpoint.Every == 0 {
		tc.Checkpoint.Every = checkpointEvery
	}
	if tc.Seed == 0 {
		tc.Seed = 1
	}
	return tc, nil
}

// setFlags records which flags were passed explicitly (for -config
// override precedence).
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func cmdTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("o", "model.cbgan", "output model file")
	saveModel := fs.String("save-model", "", "output model file (overrides -o; use to export into a cbx-serve registry dir)")
	loadModel := fs.String("load-model", "", "warm-start from an existing model instead of initialising fresh; with -epochs 0 the model is re-exported without training")
	tiny := fs.Bool("tiny", false, "use a miniature model and heatmap geometry (fast smoke-test models)")
	cfgStr := fs.String("cache", "64set-12way", "comma-separated cache geometries to train on")
	configPath := fs.String("config", "", "train.json TrainConfig file; explicitly passed flags override its fields")
	epochs := fs.Int("epochs", 50, "training epochs (0 with -load-model: re-export only)")
	batch := fs.Int("batch", 8, "batch size")
	shards := fs.Int("shards", 0, "data-parallel gradient shards per batch (0/1 = serial; the model depends on -shards, never on -j)")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	seed := fs.Int64("seed", 42, "train/test split seed")
	maxBenches := fs.Int("max-benches", 0, "cap the number of training benchmarks (0 = all)")
	storeDir := fs.String("store", "", "artifact store directory for memoised simulation results (empty = no store)")
	noStore := fs.Bool("no-store", false, "disable the artifact store even if -store is set")
	checkpointEvery := fs.Int("checkpoint-every", 0, "write a resumable checkpoint every N epochs (0 disables)")
	resume := fs.Bool("resume", false, "resume training from the checkpoint file if present")
	workers := fs.Int("j", 0, "worker-pool width for simulation and gradient shards (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the run's spans to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer traceToFile(*tracePath, &err)()
	path := *out
	if *saveModel != "" {
		path = *saveModel
	}
	ckptPath := path + ".ckpt"

	tc, err := resolveTrainConfig(*configPath, setFlags(fs), *epochs, *batch, *shards, *workers, *checkpointEvery)
	if err != nil {
		return err
	}
	tc.Log = os.Stdout

	var m *cachebox.Model
	if *loadModel != "" {
		if m, err = cachebox.LoadModelFile(*loadModel); err != nil {
			return err
		}
	} else {
		mc := cachebox.DefaultModelConfig()
		if *tiny {
			mc = tinyModelConfig()
		}
		if m, err = cachebox.NewModel(mc); err != nil {
			return err
		}
	}
	// Re-export path: -epochs 0 skips dataset building and training
	// entirely, so a trained model can be copied into a serving registry
	// (or a fresh tiny model materialised) without a training run.
	if tc.Epochs <= 0 {
		if err := m.SaveFile(path); err != nil {
			return err
		}
		fmt.Printf("saved model to %s (no training)\n", path)
		return nil
	}
	if tc.Checkpoint.Every > 0 && tc.Checkpoint.Path == "" {
		tc.Checkpoint.Path = ckptPath
	}
	if *resume {
		c, err := cachebox.LoadCheckpointFile(ckptPath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		tc.ResumeFrom = c
		if tc.Checkpoint.Path == "" {
			// Keep checkpointing where the resumed run left its state.
			tc.Checkpoint.Path = ckptPath
			tc.Checkpoint.Every = 1
		}
	}

	// A -config file naming a streamed dataset trains straight off the
	// sharded store manifest; otherwise the synthetic pipeline builds
	// the dataset in memory.
	if tc.Dataset.Kind == cachebox.TrainDatasetStream {
		src, man, err := traind.OpenDatasetSource(tc.Dataset)
		if err != nil {
			return err
		}
		fmt.Printf("training on %d streamed samples from dataset %q\n", src.Len(), man.Name)
		if _, err := m.TrainSource(src, tc); err != nil {
			return err
		}
		if err := m.SaveFile(path); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", path)
		return nil
	}

	var cfgs []cachesim.Config
	for _, s := range strings.Split(*cfgStr, ",") {
		cfg, err := parseCacheConfig(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	benches := allBenches(*ops, *scale)
	train, _ := cachebox.SplitBenchmarks(benches, 0.8, *seed)
	if *maxBenches > 0 && len(train) > *maxBenches {
		train = train[:*maxBenches]
	}
	p := cachebox.NewPipeline()
	p.MaxPairsPerBench = 24
	p.Workers = *workers
	if *tiny {
		// Match the heatmap geometry to the miniature model and shrink
		// the window so short traces still yield training pairs.
		p.Heatmap = cachebox.HeatmapConfig{Height: 16, Width: 16, WindowInstr: 40, Overlap: 0.30, AddrShift: 6}
		p.MaxPairsPerBench = 8
	}
	if *storeDir != "" && !*noStore {
		st, err := cachebox.OpenStore(*storeDir)
		if err != nil {
			return err
		}
		p.Store = st
	}
	ds, err := p.Dataset(train, cfgs, 0.65)
	if err != nil {
		return err
	}
	fmt.Printf("training on %d samples from %d benchmarks x %d configs\n", len(ds), len(train), len(cfgs))
	if _, err := m.Train(ds, tc); err != nil {
		return err
	}
	if err := m.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("saved model to %s\n", path)
	if p.Store != nil {
		fmt.Println(cachebox.RuntimeSummary())
	}
	return nil
}

func cmdEvaluate(args []string) (err error) {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	modelPath := fs.String("model", "model.cbgan", "trained model file")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry to evaluate")
	batch := fs.Int("batch", 8, "inference batch size")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	seed := fs.Int64("seed", 42, "train/test split seed (must match training)")
	workers := fs.Int("j", 0, "simulation worker-pool width (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the run's spans to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer traceToFile(*tracePath, &err)()
	m, err := cachebox.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	cfg, err := parseCacheConfig(*cfgStr)
	if err != nil {
		return err
	}
	benches := allBenches(*ops, *scale)
	_, test := cachebox.SplitBenchmarks(benches, 0.8, *seed)
	p := cachebox.NewPipeline()
	p.MaxPairsPerBench = 24
	p.Workers = *workers
	var diffs []float64
	// Ground-truth simulation fans out across the worker pool; rows
	// print in benchmark order either way.
	for _, res := range p.EvaluateAll(m, test, cfg, *batch) {
		ev, err := res.Eval, res.Err
		if err != nil {
			fmt.Printf("%-36s skipped: %v\n", res.Eval.Bench, err)
			continue
		}
		if ev.TrueHit < 0.65 {
			fmt.Printf("%-36s excluded (true hit %.4f below data-regime threshold)\n", ev.Bench, ev.TrueHit)
			continue
		}
		fmt.Printf("%-36s true=%.4f pred=%.4f |diff|=%.2f%%\n", ev.Bench, ev.TrueHit, ev.PredHit, ev.AbsPctDiff)
		diffs = append(diffs, ev.AbsPctDiff)
	}
	var sum float64
	for _, d := range diffs {
		sum += d
	}
	if len(diffs) > 0 {
		fmt.Printf("average absolute percentage difference: %.2f%% over %d benchmarks\n", sum/float64(len(diffs)), len(diffs))
	}
	return nil
}

func cmdPhases(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ExitOnError)
	name := fs.String("bench", "", "benchmark name")
	traceFile := fs.String("trace", "", "binary trace file (alternative to -bench)")
	interval := fs.Int("interval", 10000, "accesses per interval")
	k := fs.Int("k", 4, "number of phases")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry for the rate comparison")
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr *trace.Trace
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
		defer f.Close()
		tr, err = trace.ReadBinary(f)
		if err != nil {
			return err
		}
	case *name != "":
		b, err := workload.ByName(allBenches(*ops, *scale), *name)
		if err != nil {
			return err
		}
		tr = b.Trace()
	default:
		return fmt.Errorf("phases: need -bench or -trace")
	}
	scfg := simpoint.DefaultConfig()
	scfg.IntervalLen = *interval
	scfg.K = *k
	ph, err := simpoint.Analyze(tr, scfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d intervals, %d phases\n", tr.Name, len(ph.Intervals), len(ph.Representatives))
	for c, rep := range ph.Representatives {
		iv := ph.Intervals[rep]
		fmt.Printf("  phase %d: weight %.2f, representative interval %d (accesses [%d,%d))\n",
			c, ph.Weights[c], iv.Index, iv.Lo, iv.Hi)
	}
	ccfg, err := parseCacheConfig(*cfgStr)
	if err != nil {
		return err
	}
	full := cachesim.RunTrace(cachesim.New(ccfg), tr).Stats.MissRate()
	est := ph.EstimateRate(tr, func(sub *trace.Trace) float64 {
		return cachesim.RunTrace(cachesim.New(ccfg), sub).Stats.MissRate()
	})
	fmt.Printf("full-trace miss rate %.4f, simpoint estimate %.4f (|diff| %.2f%%)\n",
		full, est, 100*abs64(full-est))
	return nil
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
