package core

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/nn"
	"cachebox/internal/obs"
	"cachebox/internal/tensor"
)

// Model bundles the CB-GAN generator, discriminator and pixel codec.
type Model struct {
	Cfg Config
	G   *Generator
	D   *Discriminator
	// CodecX encodes access heatmaps; CodecY encodes/decodes miss
	// heatmaps (misses are sparser, so they get a smaller cap).
	CodecX, CodecY Codec

	// quantized routes predict calls through the generator's int8
	// forward path; set by Quantize.
	quantized bool
}

// Quantize calibrates int8 weights for the generator and switches every
// predict entry point to the quantized forward path. Calibration is
// deterministic from the float32 weights (per-tensor symmetric scale),
// so the serialised model format is unchanged — Save still writes
// float32 weights and a loaded model can be re-quantized at will.
// Inference-only: training continues to use the float32 path and
// re-calling Quantize after a train step refreshes the int8 panels.
func (m *Model) Quantize() {
	m.G.PrepareQuant()
	m.quantized = true
}

// Quantized reports whether predict calls use the int8 forward path.
func (m *Model) Quantized() bool { return m.quantized }

// forward runs the generator in eval mode on the path selected by
// Quantize.
func (m *Model) forward(x, p *tensor.Tensor) *tensor.Tensor {
	if m.quantized {
		return m.G.ForwardQuantized(x, p)
	}
	return m.G.Forward(x, p, false)
}

// NewModel constructs a fresh CB-GAN from cfg.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		Cfg:    cfg,
		G:      NewGenerator(cfg, rng),
		D:      NewDiscriminator(cfg, rng),
		CodecX: Codec{Cap: cfg.PixelCap, Gamma: cfg.Gamma},
		CodecY: Codec{Cap: cfg.MissPixelCap, Gamma: cfg.Gamma},
	}, nil
}

// CacheParams converts a cache configuration into the normalised
// numerical inputs of the conditioning path: log2(sets)/16 and
// log2(ways)/8 (paper §3.2.3: the number of sets and ways).
func CacheParams(cfg cachesim.Config) []float32 {
	return ConditionVec{Sets: cfg.Sets, Ways: cfg.Ways}.Params()
}

// ConditionVec names the cache-geometry conditioning inputs of the
// CB-GAN generator. It replaces the positional []float32 parameter
// vectors previously threaded through the batched predict path and the
// serve request body: callers say what they mean (sets, ways) and the
// model owns the normalisation.
type ConditionVec struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int `json:"sets"`
	// Ways is the associativity.
	Ways int `json:"ways"`
}

// Validate reports whether the vector describes a usable geometry.
func (v ConditionVec) Validate() error {
	if v.Sets <= 0 || v.Ways <= 0 {
		return fmt.Errorf("core: condition vector needs positive sets and ways, got sets=%d ways=%d", v.Sets, v.Ways)
	}
	return nil
}

// Params renders the vector as the normalised conditioning inputs the
// generator consumes: log2(sets)/16 and log2(ways)/8.
func (v ConditionVec) Params() []float32 {
	return []float32{
		float32(math.Log2(float64(v.Sets)) / 16),
		float32(math.Log2(float64(v.Ways)) / 8),
	}
}

// Sample is one training example: an aligned access/miss heatmap pair
// plus the cache parameters the pair was simulated under.
type Sample struct {
	Access, Miss *heatmap.Heatmap
	Params       []float32
	// Bench names the source benchmark (bookkeeping only).
	Bench string
	// Weight scales the sample's L1 reconstruction loss. Zero means 1
	// (unweighted); representative-interval sampling sets it to the
	// share of windows the sample's cluster covers.
	Weight float64
}

// paramsTensor packs per-sample parameter vectors for a batch; nil if
// conditioning is disabled.
func (m *Model) paramsTensor(batch []Sample) *tensor.Tensor {
	if m.Cfg.CondDim == 0 {
		return nil
	}
	p := tensor.New(len(batch), m.Cfg.CondDim)
	for i, s := range batch {
		mustValidShape(len(s.Params) == m.Cfg.CondDim,
			"core: sample has %d params, model expects %d", len(s.Params), m.Cfg.CondDim)
		copy(p.Data[i*m.Cfg.CondDim:], s.Params)
	}
	return p
}

// Predict generates synthetic miss heatmaps for the access heatmaps,
// processing the whole slice as batches of batchSize (paper RQ5:
// batched inference folds each layer of the batch into one large
// matrix multiplication). params supplies the cache parameters applied
// to every image; it is ignored by unconditioned models.
func (m *Model) Predict(access []*heatmap.Heatmap, params []float32, batchSize int) []*heatmap.Heatmap {
	if batchSize <= 0 {
		batchSize = 1
	}
	ctx, sp := obs.Start(context.Background(), "model.predict")
	sp.TagInt("images", len(access))
	sp.TagInt("batch_size", batchSize)
	defer sp.End()
	out := make([]*heatmap.Heatmap, 0, len(access))
	for lo := 0; lo < len(access); lo += batchSize {
		hi := lo + batchSize
		if hi > len(access) {
			hi = len(access)
		}
		chunk := access[lo:hi]
		_, encSpan := obs.Start(ctx, "codec.encode")
		x := m.CodecX.EncodeBatch(chunk)
		encSpan.End()
		var p *tensor.Tensor
		if m.Cfg.CondDim > 0 {
			mustValidShape(len(params) == m.Cfg.CondDim,
				"core: %d params, model expects %d", len(params), m.Cfg.CondDim)
			p = tensor.New(len(chunk), m.Cfg.CondDim)
			for i := 0; i < len(chunk); i++ {
				copy(p.Data[i*m.Cfg.CondDim:], params)
			}
		}
		_, fwdSpan := obs.Start(ctx, "model.forward")
		y := m.forward(x, p)
		fwdSpan.End()
		_, decSpan := obs.Start(ctx, "codec.decode")
		decoded := m.CodecY.DecodeBatch("synthetic", y)
		decSpan.End()
		for i, hm := range decoded {
			hm.Name = chunk[i].Name + ".synthetic"
			hm.Index = chunk[i].Index
			hm.StartCol = chunk[i].StartCol
			out = append(out, hm)
		}
	}
	return out
}

// ScorePairs predicts the miss heatmaps of pairs' access heatmaps
// under params and returns the true (simulated) and predicted hit
// rates the pairs imply — the paper's §4.4 comparison. Predicted
// misses are constrained to their access heatmaps first. Like Predict,
// it is not safe for concurrent use on one model.
func (m *Model) ScorePairs(hm heatmap.Config, pairs []heatmap.Pair, params []float32, batchSize int) (trueHR, predHR float64, err error) {
	if len(pairs) == 0 {
		return 0, 0, fmt.Errorf("core: no heatmaps (trace too short for %dx%d windows)", hm.Height, hm.Width)
	}
	access := make([]*heatmap.Heatmap, len(pairs))
	miss := make([]*heatmap.Heatmap, len(pairs))
	for i, pr := range pairs {
		access[i], miss[i] = pr.Access, pr.Miss
	}
	if trueHR, err = heatmap.HitRate(hm, access, miss); err != nil {
		return 0, 0, err
	}
	pred := m.Predict(access, params, batchSize)
	for i := range pred {
		pred[i] = heatmap.ConstrainMiss(pred[i], access[i])
	}
	predHR, err = heatmap.HitRate(hm, access, pred)
	return trueHR, predHR, err
}

// PredictConditioned runs one batched generator forward pass with
// per-image conditioning — the serving layer's micro-batching hook.
// Unlike Predict, which chunks a long slice under a single parameter
// vector, PredictConditioned treats the whole slice as one batch and
// pairs access[i] with conds[i], so concurrent requests simulated
// under different cache geometries still coalesce into the same folded
// GEMM. All validation failures come back as errors (never panics) so
// a serving layer can map them to clean 4xx responses.
//
// The forward pass caches activations inside the generator, so
// PredictConditioned is not safe for concurrent use on one Model;
// callers that share a model across goroutines must serialise calls.
func (m *Model) PredictConditioned(access []*heatmap.Heatmap, conds []ConditionVec) ([]*heatmap.Heatmap, error) {
	var params [][]float32
	if m.Cfg.CondDim > 0 {
		if len(conds) != len(access) {
			return nil, fmt.Errorf("core: %d access images but %d condition vectors", len(access), len(conds))
		}
		params = make([][]float32, len(conds))
		for i, v := range conds {
			if err := v.Validate(); err != nil {
				return nil, fmt.Errorf("core: image %d: %w", i, err)
			}
			params[i] = v.Params()
		}
	}
	return m.predictBatch(access, params)
}

// predictBatch is the implementation behind PredictConditioned.
func (m *Model) predictBatch(access []*heatmap.Heatmap, params [][]float32) ([]*heatmap.Heatmap, error) {
	if len(access) == 0 {
		return nil, fmt.Errorf("core: empty prediction batch")
	}
	if m.Cfg.CondDim > 0 && len(params) != len(access) {
		return nil, fmt.Errorf("core: %d access images but %d parameter vectors", len(access), len(params))
	}
	s := m.Cfg.ImageSize
	for i, hm := range access {
		if hm == nil {
			return nil, fmt.Errorf("core: nil access heatmap at index %d", i)
		}
		if hm.H != s || hm.W != s {
			return nil, fmt.Errorf("core: image %d is %dx%d, model expects %dx%d", i, hm.H, hm.W, s, s)
		}
		if m.Cfg.CondDim > 0 && len(params[i]) != m.Cfg.CondDim {
			return nil, fmt.Errorf("core: image %d has %d cache parameters, model expects %d",
				i, len(params[i]), m.Cfg.CondDim)
		}
	}
	ctx, sp := obs.Start(context.Background(), "model.predict")
	sp.TagInt("batch", len(access))
	defer sp.End()
	_, encSpan := obs.Start(ctx, "codec.encode")
	x := m.CodecX.EncodeBatch(access)
	encSpan.End()
	var p *tensor.Tensor
	if m.Cfg.CondDim > 0 {
		p = tensor.New(len(access), m.Cfg.CondDim)
		for i := range access {
			copy(p.Data[i*m.Cfg.CondDim:], params[i])
		}
	}
	_, fwdSpan := obs.Start(ctx, "model.forward")
	y := m.forward(x, p)
	fwdSpan.End()
	_, decSpan := obs.Start(ctx, "codec.decode")
	out := m.CodecY.DecodeBatch("synthetic", y)
	decSpan.End()
	for i, hm := range out {
		hm.Name = access[i].Name + ".synthetic"
		hm.Index = access[i].Index
		hm.StartCol = access[i].StartCol
	}
	return out, nil
}

// allState returns every tensor to serialise: generator and
// discriminator weights plus batch-norm running statistics.
func (m *Model) allState() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.G.Params()...)
	ps = append(ps, m.G.State()...)
	ps = append(ps, m.D.Params()...)
	ps = append(ps, m.D.State()...)
	return ps
}

// modelHeader is the gob preamble identifying the architecture.
type modelHeader struct {
	Magic   string
	Version int
	Cfg     Config
}

// ErrBadHeader marks any failure to read or validate a model file's
// architecture header: not a CB-GAN file, an unsupported version, or a
// config that fails validation. Callers (notably the serving layer)
// test with errors.Is to distinguish "bad model file" from I/O or
// weight-restore failures.
var ErrBadHeader = errors.New("core: invalid model header")

// HeaderError carries the details of a rejected architecture header.
// It unwraps to ErrBadHeader.
type HeaderError struct {
	// Magic and Version are the values found in the file (zero when the
	// header could not be decoded at all).
	Magic   string
	Version int
	// Reason says what was wrong.
	Reason string
}

func (e *HeaderError) Error() string {
	return fmt.Sprintf("core: invalid model header: %s", e.Reason)
}

func (e *HeaderError) Unwrap() error { return ErrBadHeader }

// readHeader decodes and validates the architecture header, leaving
// dec positioned at the weight blobs.
func readHeader(dec *gob.Decoder) (modelHeader, error) {
	var h modelHeader
	if err := dec.Decode(&h); err != nil {
		return h, &HeaderError{Reason: fmt.Sprintf("decode: %v", err)}
	}
	if h.Magic != "cbgan" {
		return h, &HeaderError{Magic: h.Magic, Version: h.Version,
			Reason: fmt.Sprintf("not a CB-GAN model (magic %q)", h.Magic)}
	}
	if h.Version != 1 {
		return h, &HeaderError{Magic: h.Magic, Version: h.Version,
			Reason: fmt.Sprintf("unsupported model version %d", h.Version)}
	}
	if err := h.Cfg.Validate(); err != nil {
		return h, &HeaderError{Magic: h.Magic, Version: h.Version,
			Reason: fmt.Sprintf("architecture config: %v", err)}
	}
	return h, nil
}

// ReadHeader decodes and validates just the architecture header of a
// serialised model, without restoring weights. Registries use it to
// vet candidate files cheaply; failures unwrap to ErrBadHeader.
func ReadHeader(r io.Reader) (Config, error) {
	h, err := readHeader(gob.NewDecoder(r))
	return h.Cfg, err
}

// ReadFileHeader is the path-based convenience form of ReadHeader.
func ReadFileHeader(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("core: %w", err)
	}
	//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
	defer f.Close()
	return ReadHeader(f)
}

// Save serialises the model (architecture config + all weights).
func (m *Model) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(modelHeader{Magic: "cbgan", Version: 1, Cfg: m.Cfg}); err != nil {
		return fmt.Errorf("core: save header: %w", err)
	}
	if err := enc.Encode(nn.Snapshot(m.allState())); err != nil {
		return fmt.Errorf("core: save weights: %w", err)
	}
	return nil
}

// Load reads a model serialised by Save, reconstructing the
// architecture from the stored config. Header failures (wrong magic,
// version, or invalid architecture config) unwrap to ErrBadHeader.
func Load(r io.Reader) (*Model, error) {
	dec := gob.NewDecoder(r)
	h, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(h.Cfg)
	if err != nil {
		return nil, err
	}
	var blobs []nn.ParamBlob
	if err := dec.Decode(&blobs); err != nil {
		return nil, fmt.Errorf("core: load weights: %w", err)
	}
	if err := nn.Restore(blobs, m.allState()); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile and LoadFile are path-based conveniences.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	//lint:ignore unchecked-error cleanup for early returns; the success path checks the explicit Close below
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
	defer f.Close()
	return Load(f)
}
