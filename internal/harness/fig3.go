package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/obs"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// Fig3Result reports where the rendered heatmap PNGs were written.
type Fig3Result struct {
	Paths []string
}

// Fig3 reproduces Figures 3 and 4: it renders a Polybench-style
// benchmark's access and miss heatmaps (including a consecutive pair
// showing the 30% overlap) as PNG files under the artifacts directory,
// plus one synthetic miss heatmap generated by an untrained
// seed-deterministic CB-GAN — a cheap end-to-end exercise of the
// predict path that keeps the figure runnable without training.
func (r *Runner) Fig3() (*Fig3Result, error) {
	ctx, figSpan := obs.Start(context.Background(), "harness.fig3")
	defer figSpan.End()
	suite := workload.PolyLike(r.Profile.Ops, r.Profile.SuiteScale)
	b := suite.Benchmarks[0]
	pairs, _, err := stream.Truth(ctx, r.Store, b, L1Default, r.Profile.Heatmap, r.Profile.MaxPairs)
	if err != nil {
		return nil, err
	}
	if len(pairs) < 2 {
		return nil, fmt.Errorf("harness: %s too short for consecutive heatmaps", b.Name)
	}
	dir := filepath.Join(r.ArtifactsDir, "fig3")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	res := &Fig3Result{}
	write := func(name string, m *heatmap.Heatmap) error {
		path := filepath.Join(dir, name)
		_, pngSpan := obs.Start(ctx, "heatmap.png")
		err := heatmap.WritePNG(path, m)
		pngSpan.End()
		if err != nil {
			return err
		}
		res.Paths = append(res.Paths, path)
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := write(fmt.Sprintf("access-%d.png", i), pairs[i].Access); err != nil {
			return nil, err
		}
		if err := write(fmt.Sprintf("miss-%d.png", i), pairs[i].Miss); err != nil {
			return nil, err
		}
	}
	model, err := core.NewModel(r.Profile.Model)
	if err != nil {
		return nil, err
	}
	pred := model.Predict([]*heatmap.Heatmap{pairs[0].Access}, core.CacheParams(L1Default), 1)
	if err := write("miss-0-synthetic.png", heatmap.ConstrainMiss(pred[0], pairs[0].Access)); err != nil {
		return nil, err
	}
	r.logf("\nFigure 3/4: wrote %d heatmap PNGs for %s under %s\n", len(res.Paths), b.Name, dir)
	r.logf("consecutive images overlap by %d of %d columns (30%%)\n",
		r.Profile.Heatmap.OverlapCols(), r.Profile.Heatmap.Width)
	return res, nil
}
