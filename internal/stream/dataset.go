package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"cachebox/internal/core"
	"cachebox/internal/store"
)

// maxCachedShards bounds the decoded shards a Dataset keeps resident.
// Memory stays O(shards × shard size), not O(dataset): that bound —
// not raw speed — is the point of the streaming subsystem.
const maxCachedShards = 8

// Dataset serves a built dataset's samples out of the store one shard
// at a time, implementing core.SampleSource so training never holds
// more than a few shards in memory. Filtered and skipped items are
// excluded; sample order is manifest item order then window order,
// which is the order Samples assembles.
type Dataset struct {
	st  *store.Store
	man *Manifest

	items []dsItem // usable items with their global sample offsets
	total int

	mu    sync.Mutex
	cache map[string][]ShardWindow
	order []string // FIFO of cached shard digests
}

type dsItem struct {
	it     *Item
	params []float32
	start  int
}

// OpenDataset validates the manifest's sample index against its
// shard refs and returns a lazily-loading Dataset over it.
func OpenDataset(st *store.Store, man *Manifest) (*Dataset, error) {
	if st == nil {
		return nil, fmt.Errorf("stream: nil store")
	}
	if man == nil || man.ShardWindows <= 0 {
		return nil, fmt.Errorf("stream: invalid manifest")
	}
	d := &Dataset{st: st, man: man, cache: make(map[string][]ShardWindow)}
	off := 0
	for i := range man.Items {
		it := &man.Items[i]
		if !it.usable() {
			continue
		}
		sum := 0
		for _, ref := range it.Shards {
			sum += ref.Windows
		}
		if sum != it.Windows {
			return nil, fmt.Errorf("stream: item %s/%+v: shards hold %d windows, manifest says %d",
				it.Bench, it.Cache, sum, it.Windows)
		}
		d.items = append(d.items, dsItem{it: it, params: core.CacheParams(it.Cache), start: off})
		off += it.Windows
	}
	if off != man.TotalWindows {
		return nil, fmt.Errorf("stream: manifest TotalWindows=%d but items sum to %d", man.TotalWindows, off)
	}
	d.total = off
	return d, nil
}

// Manifest returns the dataset's manifest.
func (d *Dataset) Manifest() *Manifest { return d.man }

// Len returns the number of samples the dataset serves.
func (d *Dataset) Len() int { return d.total }

// At returns sample i, pulling (and briefly caching) the shard that
// holds it. Safe for concurrent use.
func (d *Dataset) At(i int) (core.Sample, error) {
	if i < 0 || i >= d.total {
		return core.Sample{}, fmt.Errorf("stream: sample index %d out of range [0,%d)", i, d.total)
	}
	k := sort.Search(len(d.items), func(j int) bool { return d.items[j].start > i }) - 1
	it := d.items[k]
	local := i - it.start
	si, wi := local/d.man.ShardWindows, local%d.man.ShardWindows
	if si >= len(it.it.Shards) {
		return core.Sample{}, fmt.Errorf("stream: item %s shard %d missing", it.it.Bench, si)
	}
	ws, err := d.shard(it.it.Shards[si])
	if err != nil {
		return core.Sample{}, err
	}
	if wi >= len(ws) {
		return core.Sample{}, fmt.Errorf("stream: item %s shard %d has %d windows, want index %d",
			it.it.Bench, si, len(ws), wi)
	}
	w := ws[wi]
	return core.Sample{
		Access: w.Access,
		Miss:   w.Miss,
		Params: it.params,
		Bench:  it.it.Bench,
		Weight: w.Weight,
	}, nil
}

// shard returns the decoded windows of ref, serving from the bounded
// FIFO cache when warm.
func (d *Dataset) shard(ref ShardRef) ([]ShardWindow, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ws, ok := d.cache[ref.Digest]; ok {
		return ws, nil
	}
	ws, err := loadShard(ref, func() (io.ReadCloser, *store.Manifest, error) { return d.st.OpenDigest(ref.Digest) })
	if err != nil {
		return nil, err
	}
	d.cache[ref.Digest] = ws
	d.order = append(d.order, ref.Digest)
	if len(d.order) > maxCachedShards {
		delete(d.cache, d.order[0])
		d.order = d.order[1:]
	}
	return ws, nil
}

// loadShard decodes one shard read through open, checking its content
// hash and window count against ref.
func loadShard(ref ShardRef, open func() (io.ReadCloser, *store.Manifest, error)) ([]ShardWindow, error) {
	rc, sm, err := open()
	if err != nil {
		return nil, fmt.Errorf("stream: open shard %s: %w", ref.Digest, err)
	}
	//lint:ignore unchecked-error read-only handle; DecodeShard below already surfaces any I/O failure
	defer rc.Close()
	if sm.SHA256 != ref.SHA256 {
		return nil, fmt.Errorf("stream: shard %s content hash %s does not match manifest %s",
			ref.Digest, sm.SHA256, ref.SHA256)
	}
	ws, err := DecodeShard(rc)
	if err != nil {
		return nil, fmt.Errorf("stream: decode shard %s: %w", ref.Digest, err)
	}
	if len(ws) != ref.Windows {
		return nil, fmt.Errorf("stream: shard %s decoded %d windows, manifest says %d",
			ref.Digest, len(ws), ref.Windows)
	}
	return ws, nil
}
